// Machine-level fault domains (§5j): the re-placement engine consuming
// membership death verdicts and rebuilding the dead machine's fragments on
// survivors.
//
// The transport's membership plane (fabric.Grid leases) declares a machine
// dead; the engine then fences the machine out with Kill — the condemned
// incarnation physically cannot drive its old fragments once its broker and
// links are gone — and every slot the machine hosted moves to a survivor
// through the one re-placement sequence (replace):
//
//   - the broadcast fragment, which the engine re-places itself as a warm
//     standby from the newest of the dead incarnation's in-memory aggregate
//     and the fragment checkpoint, at a version bumped past everything any
//     survivor has seen;
//   - learn replicas and explorers, whose supervisors the engine hands a
//     verdict; a move spends no restart budget.
//
// Every move is announced with a ControlTakeover carrying the new
// incarnation epoch; the broadcaster answers an explorer's takeover by
// sending it the committed model, dense. The coordinator machine hosts the
// controller and the membership detector; its death is terminal by design.
package core

import (
	"fmt"
	"time"

	"xingtian/internal/broker"
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
// then move its slots — the broadcaster here, then learn replicas and
// explorers through their supervisors.
func (s *Session) handleMachineDead(machine, epoch int) {
	s.mfMu.Lock()
	if s.mfDead[machine] {
		s.mfMu.Unlock()
		return // duplicate verdict (the plane fires once, but be safe)
	}
	s.mfDead[machine] = true
	s.mfMu.Unlock()

	// Record the verdict on the controller's own stats channel so the
	// final report counts what was seen.
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

	// The broadcaster's loops ended with its broker, so retiring it joins
	// them, and the standby is built from what survives.
	f := s.frags
	if c := f.caster; c.home() == machine {
		c.kind.retire(c.name, c.current())
		if err := replace(s, c, false); err != nil {
			s.failFragments(fmt.Errorf("core: machine %d death: re-place %s: %w", machine, c.name, err))
			return
		}
	}
	for _, sl := range f.slots {
		sl.condemnOn(machine)
	}
	for _, sl := range s.slots {
		sl.condemnOn(machine)
	}
}

// failFragments drives the run to a terminal failure: the done channel
// closes with err as the run's verdict, so Wait returns and Err reports it.
func (s *Session) failFragments(err error) {
	f := s.frags
	f.fatal.CompareAndSwap(nil, &err)
	f.doneOne.Do(func() { close(f.done) })
}

// pickSurvivor chooses the least-loaded surviving machine by hosted-fragment
// count (broadcaster, learn replicas, explorer slots), lowest ID on ties.
// Returns -1 when nothing survives.
func (s *Session) pickSurvivor() int {
	n := s.mfTransport.Machines()
	load := make([]int, n)
	note := func(m int) {
		if m >= 0 && m < n {
			load[m]++
		}
	}
	f := s.frags
	note(f.caster.home())
	for _, sl := range f.slots {
		note(sl.home())
	}
	for _, sl := range s.slots {
		note(sl.home())
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
// The controller counts it (FragmentReport); when the broadcaster is
// addressed too it marks the fragment's weight-plane state stale and sends
// it the committed model, re-seeding the newcomer.
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

// checkpointState reads the state of the first of names present in the
// newest readable fragment checkpoint set (ok = false when none).
func (s *Session) checkpointState(names ...string) (checkpoint.State, bool) {
	if s.cfg.CheckpointPath == "" {
		return checkpoint.State{}, false
	}
	states, err := checkpoint.LoadLatestFragments(s.cfg.CheckpointPath)
	if err != nil {
		return checkpoint.State{}, false
	}
	for _, name := range names {
		for _, fs := range states {
			if fs.Name == name {
				return fs.State, true
			}
		}
	}
	return checkpoint.State{}, false
}

// casterKind re-places the broadcaster as a warm standby. The committed
// model recovers from the newest of the dead incarnation's in-memory
// aggregate (safe to read once retire joined its loop) and the fragment
// checkpoint; the version is bumped past both, so every survivor's next
// comparison sees strictly newer state and a stale-version livelock is
// impossible. Start broadcasts the recovered model to every explorer,
// dense: the standby's weight plane has no ack state.
func (s *Session) casterKind(learnNames []string) *slotKind[*BroadcastFragment] {
	f := s.frags
	return &slotKind[*BroadcastFragment]{
		build: func(_ int, old *BroadcastFragment, port *broker.Port, _ int32) (*BroadcastFragment, error) {
			version := old.Version()
			weights := append([]float32(nil), old.agg...)
			if st, ok := s.checkpointState(BroadcastName); ok && st.Version > version {
				version, weights = st.Version, st.Weights
			}
			next := s.newCaster(port, learnNames, version+1, weights)
			epochs, _, degraded := f.replicaStates()
			next.seedFailoverState(epochs, degraded)
			return next, nil
		},
		retire: func(_ string, old *BroadcastFragment) bool {
			old.Stop() // the detector thread; the loop died with the broker
			old.Join()
			return true
		},
	}
}
