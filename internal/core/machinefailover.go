// Machine-level fault domains (§5j): the re-placement engine consuming
// membership death verdicts and rebuilding the dead machine's fragments on
// survivors.
//
// The transport's membership plane (fabric.Grid leases) declares a machine
// dead; the engine then fences the machine out with Kill — the condemned
// incarnation physically cannot drive its old fragments once its broker and
// links are gone — and re-places every fragment the machine hosted:
//
//   - the broadcast fragment rebuilds from the newest of the dead
//     incarnation's in-memory aggregate and the fragment checkpoint, at a
//     version bumped past everything any survivor has seen;
//   - the sample fragment rebuilds from the slot-tracked replica epochs and
//     the broker ack ledger reconstructed by heartbeats, its staleness fence
//     recovered from the live broadcaster and the checkpoint;
//   - learn replicas ride the §5i respawn path — the engine injects a
//     suspicion verdict and respawnLearn re-places the port because the home
//     is recorded dead;
//   - explorer slots are rebuilt directly on a survivor, their retired
//     counters folded in.
//
// Every re-placement is announced with a ControlTakeover carrying the new
// incarnation epoch; the broadcaster answers a takeover with a rebroadcast
// of the committed model, refilling flow-control credit any explorer burned
// during the outage. The coordinator machine hosts the controller and the
// membership detector; its death is terminal by design.
package core

import (
	"fmt"
	"time"

	"xingtian/internal/checkpoint"
	"xingtian/internal/message"
)

// coordinatorMachine hosts the controller, the learner-or-fragment control
// plane, and the membership detector under MachineFailover. Its death is not
// survivable (and not observable — the detector dies with it).
const coordinatorMachine = 0

// leaseMisses is the consecutive-miss budget handed to the membership
// detector: a machine overdue by leaseMisses*LeaseEvery with a corroborating
// downed link (or twice that regardless of link state) is declared dead.
const leaseMisses = 4

// MachineFailoverTransport is the contract Config.MachineFailover needs from
// its transport: whole-machine membership (a lease plane rendering
// epoch-fenced death verdicts) plus the expulsion primitive the engine
// fences condemned machines with. fabric.Grid implements it; the netsim
// cluster does not — machine failover is a real-wire feature.
type MachineFailoverTransport interface {
	Transport
	// Machines reports the deployment width.
	Machines() int
	// StartMembership arms the lease plane: machine `coordinator` hosts the
	// lease sink and detector, every other machine renews each `every`
	// (zero = transport default), and a machine missing `misses` renewals
	// is declared dead — onDead fires exactly once per machine with the
	// verdict epoch.
	StartMembership(coordinator int, every time.Duration, misses int, onDead func(machine, epoch int)) error
	// Kill expels a machine: links severed, broker stopped. Idempotent.
	Kill(machineID int)
	// MembershipStats reports leases received and verdicts fired.
	MembershipStats() (renewals, verdicts int64)
}

// mfVerdict is one membership death verdict queued for the engine.
type mfVerdict struct {
	machine int
	epoch   int
}

// machineFailoverLoop is the re-placement engine thread: it consumes
// membership verdicts until shutdown. Verdicts are processed one at a time —
// placement decisions must see the previous re-placement completed.
func (s *Session) machineFailoverLoop() {
	defer s.superWG.Done()
	for {
		select {
		case <-s.shutdown:
			return
		case v := <-s.mfVerdicts:
			s.handleMachineDead(v.machine, v.epoch)
		}
	}
}

// machineDead reports whether a machine has been condemned by a verdict the
// engine already accepted.
func (s *Session) machineDead(machine int) bool {
	s.mfMu.Lock()
	defer s.mfMu.Unlock()
	return s.mfDead[machine]
}

// handleMachineDead is one whole-machine failover: fence the machine out,
// then re-place its fragments in dependency order — broadcaster first (the
// sampler's rebuilt fence reads its version), then sampler, then learn
// replicas via their supervisors, then explorer slots.
func (s *Session) handleMachineDead(machine, epoch int) {
	s.mfMu.Lock()
	if s.mfDead[machine] {
		s.mfMu.Unlock()
		return // duplicate verdict (the plane fires once, but be safe)
	}
	s.mfDead[machine] = true
	s.mfMu.Unlock()

	// Record the verdict on the controller's own stats channel so live
	// polls (TakeoverStats) and the final report agree on what was seen.
	dm := message.New(message.TypeControl, ControllerName, []string{ControllerName},
		&message.ControlPayload{Kind: message.ControlMachineDead, Machine: machine})
	dm.Header.Round = int32(epoch)
	_ = s.ctrlPort.Send(dm)

	if machine == coordinatorMachine {
		s.failFragments(fmt.Errorf("core: coordinator machine %d condemned by membership verdict", machine))
		return
	}

	// Fence first: expel the machine so its incarnations cannot drive their
	// old fragments (or ack, push, or renew) while standbys rebuild.
	s.mfTransport.Kill(machine)

	f := s.frags
	f.fragMu.Lock()
	castDead := f.castMachine == machine
	sampleDead := f.sampleMachine == machine
	f.fragMu.Unlock()
	if castDead {
		if err := s.rebuildBroadcaster(machine); err != nil {
			s.failFragments(fmt.Errorf("core: rebuild broadcaster after machine %d death: %w", machine, err))
			return
		}
	}
	if sampleDead {
		if err := s.rebuildSampler(machine); err != nil {
			s.failFragments(fmt.Errorf("core: rebuild sampler after machine %d death: %w", machine, err))
			return
		}
	}

	// Learn replicas ride the §5i respawn path: inject a suspicion verdict
	// at the slot's current epoch; the supervisor quarantines (the sampler
	// re-dispatches un-acked batches, the broadcaster recommits the
	// survivor mean) and respawnLearn re-places the port onto a survivor
	// because the home is now recorded dead.
	for _, sl := range f.slots {
		sl.mu.Lock()
		onDead := sl.machine == machine && !sl.degraded
		ep := sl.epoch
		sl.mu.Unlock()
		if onDead {
			select {
			case sl.suspect <- ep:
			default: // a verdict is already pending for this slot
			}
		}
	}

	// Explorer slots last: the broadcaster and sampler are live again, so a
	// rebuilt explorer's first rollout has somewhere to go and the takeover
	// rebroadcast hands it the committed model.
	for _, sl := range s.slots {
		sl.mu.Lock()
		onDead := sl.machine == machine
		sl.mu.Unlock()
		if !onDead {
			continue
		}
		if err := s.rebuildExplorer(sl, machine); err != nil {
			// A lost explorer slot degrades throughput, not safety: record
			// the failure and keep the run alive on the remaining slots.
			sl.mu.Lock()
			if sl.lastErr == nil {
				sl.lastErr = err
			}
			sl.mu.Unlock()
		}
	}
}

// failFragments drives the run to a terminal failure: every learn slot is
// marked terminal (the monitor and Err surface the verdict) and the done
// channel closes so Wait returns.
func (s *Session) failFragments(err error) {
	for _, sl := range s.frags.slots {
		sl.mu.Lock()
		if sl.terminalErr == nil {
			sl.terminalErr = err
		}
		sl.mu.Unlock()
	}
	s.frags.doneOne.Do(func() { close(s.frags.done) })
}

// pickSurvivor chooses the least-loaded surviving machine by hosted-fragment
// count (sampler, broadcaster, learn replicas, explorer slots), lowest ID on
// ties. Returns -1 when nothing survives.
func (s *Session) pickSurvivor() int {
	n := s.mfTransport.Machines()
	load := make([]int, n)
	note := func(m int) {
		if m >= 0 && m < n {
			load[m]++
		}
	}
	f := s.frags
	f.fragMu.Lock()
	note(f.sampleMachine)
	note(f.castMachine)
	f.fragMu.Unlock()
	for _, sl := range f.slots {
		sl.mu.Lock()
		note(sl.machine)
		sl.mu.Unlock()
	}
	for _, sl := range s.slots {
		sl.mu.Lock()
		note(sl.machine)
		sl.mu.Unlock()
	}
	s.mfMu.Lock()
	defer s.mfMu.Unlock()
	best := -1
	for m := 0; m < n; m++ {
		if s.mfDead[m] {
			continue
		}
		if best < 0 || load[m] < load[best] {
			best = m
		}
	}
	return best
}

// announceTakeover records one fragment re-placement on the control plane.
// The controller counts it (TakeoverStats, FragmentReport); when the
// broadcaster is addressed too it marks the fragment's weight-plane state
// stale and rebroadcasts the committed model — re-seeding the newcomer and
// refilling the flow-control credit explorers burned during the outage.
func (s *Session) announceTakeover(name string, machine int, epoch int32, toCaster bool) {
	s.frags.takeovers.Add(1)
	dsts := []string{ControllerName}
	if toCaster {
		dsts = append(dsts, BroadcastName)
	}
	m := message.New(message.TypeControl, ControllerName, dsts,
		&message.ControlPayload{Kind: message.ControlTakeover, Peer: name, Machine: machine})
	m.Header.Round = epoch
	_ = s.ctrlPort.Send(m)
}

// checkpointState reads one fragment's state from the newest readable
// fragment checkpoint set (ok = false when none).
func (s *Session) checkpointState(name string) (checkpoint.State, bool) {
	if s.cfg.CheckpointPath == "" {
		return checkpoint.State{}, false
	}
	states, err := checkpoint.LoadLatestFragments(s.cfg.CheckpointPath)
	if err != nil {
		return checkpoint.State{}, false
	}
	for _, fs := range states {
		if fs.Name == name {
			return fs.State, true
		}
	}
	return checkpoint.State{}, false
}

// learnNames returns the canonical replica name list in slot order.
func (s *Session) learnNames() []string {
	names := make([]string, len(s.frags.slots))
	for i := range names {
		names[i] = LearnName(i)
	}
	return names
}

// rebuildSampler stands a warm-standby sample fragment up on a survivor.
// The sampler's hard state is reconstructible: replica epochs and the live
// rotation come from the slots, the consumption ack ledger is rebuilt by the
// next heartbeats, and the committed-version fence recovers from the live
// broadcaster and the checkpointed sampler entry — without it a strict
// staleness bound would re-admit rollouts the dead sampler had outlawed.
func (s *Session) rebuildSampler(dead int) error {
	f := s.frags
	old := f.getSampler()
	s.transport.Unregister(dead, SampleName)
	to := s.pickSurvivor()
	if to < 0 {
		return fmt.Errorf("no survivor machine for %s", SampleName)
	}
	port, err := s.transport.Register(to, SampleName)
	if err != nil {
		return err
	}
	// The dead incarnation's loop exited when its broker stopped; joining
	// it makes the swap single-writer.
	old.Join()

	next := NewSampleFragment(port, s.learnNames(), f.topo.MaxStaleness)
	if f.failover {
		next.SetFailover()
		epochs := make(map[string]int32, len(f.slots))
		live := make([]string, 0, len(f.slots))
		for _, sl := range f.slots {
			sl.mu.Lock()
			epochs[LearnName(sl.idx)] = sl.epoch
			if !sl.degraded {
				live = append(live, LearnName(sl.idx))
			}
			sl.mu.Unlock()
		}
		next.seedFailoverState(epochs, live)
	}
	recovered := f.getCaster().Version()
	if st, ok := s.checkpointState(SampleName); ok && st.Version > recovered {
		recovered = st.Version
	}
	next.advanceCommitted(recovered)

	f.fragMu.Lock()
	f.sampler = next
	f.sampleMachine = to
	f.samplerEpoch++
	ep := f.samplerEpoch
	f.fragMu.Unlock()
	next.Start()
	// The broadcaster's takeover rebroadcast re-announces the committed
	// version to the standby and refills every explorer's credit.
	s.announceTakeover(SampleName, to, ep, true)
	return nil
}

// rebuildBroadcaster stands a warm-standby broadcast fragment up on a
// survivor. The committed model recovers from the newest of the dead
// incarnation's in-memory aggregate (safe to read once its loop is joined)
// and the fragment checkpoint; the version is bumped past both — and past
// the sampler's fence — so every survivor's next comparison sees strictly
// newer state and a stale-version livelock is impossible.
func (s *Session) rebuildBroadcaster(dead int) error {
	f := s.frags
	old := f.getCaster()
	old.Stop() // detector thread; the recv loop died with the broker
	s.transport.Unregister(dead, BroadcastName)
	to := s.pickSurvivor()
	if to < 0 {
		return fmt.Errorf("no survivor machine for %s", BroadcastName)
	}
	port, err := s.transport.Register(to, BroadcastName)
	if err != nil {
		return err
	}
	old.Join()

	version := old.Version()
	weights := append([]float32(nil), old.agg...)
	if st, ok := s.checkpointState(BroadcastName); ok && st.Version > version {
		version, weights = st.Version, st.Weights
	}
	if c := f.getSampler().Committed(); c > version {
		version = c
	}
	version++

	explorers := make([]string, s.cfg.NumExplorers)
	for i := range explorers {
		explorers[i] = ExplorerName(int32(i))
	}
	next := NewBroadcastFragment(port, BroadcastConfig{
		Explorers:       explorers,
		Learners:        s.learnNames(),
		InitialVersion:  version,
		InitialWeights:  weights,
		WeightPlane:     s.cfg.weightPlane(),
		CheckpointPath:  s.cfg.CheckpointPath,
		CheckpointEvery: s.cfg.CheckpointEvery,
		CheckpointKeep:  s.cfg.CheckpointKeep,
	})
	if f.failover {
		next.SetFailover(heartbeatMisses*s.cfg.HeartbeatEvery, f.suspectFn)
		epochs := make(map[string]int32, len(f.slots))
		quarantined := make([]string, 0, len(f.slots))
		for _, sl := range f.slots {
			sl.mu.Lock()
			epochs[LearnName(sl.idx)] = sl.epoch
			if sl.degraded {
				quarantined = append(quarantined, LearnName(sl.idx))
			}
			sl.mu.Unlock()
		}
		next.seedFailoverState(epochs, quarantined)
	}
	f.fragMu.Lock()
	f.caster = next
	f.castMachine = to
	f.casterEpoch++
	ep := f.casterEpoch
	f.fragMu.Unlock()
	// Start broadcasts the recovered model to every explorer (dense — the
	// standby's weight plane has no ack state) and announces the bumped
	// version to the sampler.
	next.Start()
	s.announceTakeover(BroadcastName, to, ep, false)
	return nil
}

// rebuildExplorer re-places one explorer slot onto a survivor, folding the
// retired incarnation's counters. It runs on the engine thread; the slot's
// rebuildMu serializes it against the slot supervisor's own restart path.
func (s *Session) rebuildExplorer(sl *explorerSlot, dead int) error {
	sl.rebuildMu.Lock()
	defer sl.rebuildMu.Unlock()
	sl.mu.Lock()
	old := sl.ex
	home := sl.machine
	sl.mu.Unlock()
	if home != dead {
		return nil // the supervisor already rebuilt the slot elsewhere
	}
	name := ExplorerName(sl.id)
	old.Stop()
	s.transport.Unregister(dead, name)
	old.Join()
	to := s.pickSurvivor()
	if to < 0 {
		return fmt.Errorf("core: no survivor machine for %s", name)
	}
	next, err := s.buildExplorer(sl.id, to)
	if err != nil {
		return fmt.Errorf("core: re-place %s on machine %d: %w", name, to, err)
	}
	var ep int32
	sl.mu.Lock()
	sl.priorSteps += old.StepsGenerated()
	n, mean := old.EpisodeStats()
	sl.priorEpisodes += n
	sl.priorReturnSum += mean * float64(n)
	sl.ex = next
	sl.machine = to
	sl.moves++
	ep = sl.moves
	sl.mu.Unlock()
	next.Start()
	// Nudge the supervisor off the retired incarnation, then announce: the
	// broadcaster marks the slot stale and rebroadcasts, so the newcomer
	// gets a dense model and credit-starved peers are refilled.
	select {
	case sl.replaced <- struct{}{}:
	default:
	}
	s.announceTakeover(name, to, ep, true)
	return nil
}
