package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/checkpoint"
	"xingtian/internal/message"
	"xingtian/internal/netsim"
	"xingtian/internal/serialize"
	"xingtian/internal/stats"
	"xingtian/internal/weightplane"
)

// Transport is the deployment substrate a Session runs over: a set of
// per-machine brokers plus the cross-machine forwarding between them.
// broker.Cluster (netsim) and fabric.Grid (real TCP) both satisfy it. The
// Session takes ownership of the transport and stops it during Stop.
type Transport interface {
	// Register attaches a named client to a machine's broker.
	Register(machineID int, name string) (*broker.Port, error)
	// Unregister detaches a named client, closing its ID queue and
	// releasing queued refs, so the name can be registered again.
	Unregister(machineID int, name string)
	// Broker exposes a machine's broker (nil if unknown).
	Broker(machineID int) *broker.Broker
	// Health snapshots channel health across the deployment.
	Health() broker.ClusterHealth
	// Stop shuts every broker (and any wire underneath) down.
	Stop()
}

// Config describes one XingTian deployment, mirroring the paper's
// configuration file: which machines exist, where the learner lives, how
// many explorers run, and when training stops.
//
// A field's tags make it the one declaration of its deployment knob:
// `flag` names its command-line flag, `json` its key in a JSON deployment
// config, and `help` the flag's usage text. A time.Duration knob whose
// flag or JSON value counts whole units says so: `unit` sets the unit both
// count, `jsonunit` the unit only the JSON key counts (the flag then takes
// a Go duration such as "500us"). A field without tags is no knob of its
// own: library callers set it, and xt-train sets some from flags that
// each stand for several fields (-topology and -learners, -learner-restarts,
// -grid, -metrics). Validate checks the cross-field rules.
type Config struct {
	// NumExplorers is the total explorer count across all machines.
	NumExplorers int `flag:"explorers" json:"explorers" help:"parallel explorers"`
	// RolloutLen is the number of steps per rollout message.
	RolloutLen int `flag:"rollout" json:"rollout_len" help:"steps per rollout message"`
	// MaxSteps stops the run after the learner consumes this many steps.
	MaxSteps int64 `flag:"steps" json:"max_steps" help:"stop after consuming this many steps"`
	// MaxDuration stops the run on wall time regardless of progress
	// (0 = no limit).
	MaxDuration time.Duration `flag:"seconds" json:"max_seconds" unit:"s" help:"wall-clock limit"`
	// Machines is the deployment width; the learner runs on machine 0 and
	// explorers are assigned round-robin. Values < 1 mean a single machine.
	Machines int `flag:"machines" json:"machines" help:"simulated machines"`
	// Compress enables the 1 MB-threshold LZ4 compression of the paper.
	Compress bool `flag:"compress" json:"compress" help:"LZ4 compression above 1 MB"`
	// PlaneNsPerKB emulates a slower serialization plane
	// (serialize.Compressor.PackNsPerKB); 0 uses the raw Go codec.
	PlaneNsPerKB int
	// Net overrides the simulated network (zero value = paper defaults).
	// Ignored when Transport is set.
	Net netsim.Config
	// Transport overrides the deployment substrate. Nil builds the default
	// netsim-backed broker.Cluster from Machines/Net; a fabric.Grid here
	// runs the same session over real TCP. The session stops the transport.
	Transport Transport
	// SeriesBucket sets the throughput series resolution (default 1s).
	SeriesBucket time.Duration
	// CheckpointPath, when set, periodically saves the learner's DNN
	// parameters (every CheckpointEvery training sessions; default 100).
	CheckpointPath  string `flag:"ckpt" json:"checkpoint" help:"checkpoint path (enables periodic DNN parameter saves)"`
	CheckpointEvery int64  `flag:"ckpt-every" json:"checkpoint_every" help:"training sessions between checkpoints (0 = default 100)"`
	// CheckpointKeep > 0 switches saving to a rotation set (path.1, path.2,
	// …) retaining the last CheckpointKeep checkpoints; 0 keeps the single
	// overwritten file.
	CheckpointKeep int `flag:"ckpt-keep" json:"checkpoint_keep" help:"retain the last K rotated checkpoints as <ckpt>.N (0 = single overwritten file)"`
	// Resume restores the newest readable checkpoint at CheckpointPath
	// before training starts (no-op when none exists). The restored weights
	// version seeds the learner's broadcasts, so explorers continue from
	// the pre-crash sequence.
	Resume bool `flag:"resume" json:"resume" help:"restore the newest readable checkpoint at -ckpt before training"`
	// StoreBudget bounds each broker's object store (bytes; 0 = unbounded)
	// and ShedQueueDepth caps destination queues by shedding the oldest
	// droppable messages — the overload-protection knobs of broker.Config.
	// Both apply only to the default netsim transport; a caller-supplied
	// Transport configures its own brokers.
	StoreBudget    int64 `flag:"store-budget" json:"store_budget" help:"per-broker object store byte budget (0 = unbounded); under pressure trajectory pushes shed, model updates always get through"`
	ShedQueueDepth int   `flag:"shed-depth" json:"shed_depth" help:"destination queue depth past which the oldest droppable messages shed (0 = unbounded)"`
	// MaxInflight bounds un-acknowledged rollout fragments per explorer
	// (0 = DefaultMaxInflight; < 0 disables flow control).
	MaxInflight int `flag:"credits" json:"credits" help:"un-acknowledged rollout fragments allowed per explorer (0 = default, <0 = unlimited)"`
	// WeightDelta enables the communication-efficient weight plane: the
	// learner broadcasts sparse deltas against the version each explorer
	// last acked, with dense-snapshot fallback for stale or NACKed peers.
	WeightDelta bool `flag:"weight-delta" json:"weight_delta" help:"broadcast sparse weight deltas against each explorer's acked version (dense fallback on staleness or NACK)"`
	// WeightQuantBits quantizes delta steps (8 = int8; 0 = exact float32).
	WeightQuantBits int `flag:"weight-quant" json:"weight_quant_bits" help:"delta quantization bits: 8 = int8 steps, 0 = exact float32 (with -weight-delta)"`
	// WeightSkipFactor scales the adaptive skip threshold: updates whose
	// relative norm falls below WeightSkipFactor × EMA become pure version
	// bumps (0 disables skipping).
	WeightSkipFactor float64 `flag:"weight-skip" json:"weight_skip_factor" help:"skip broadcasts whose relative delta norm is below this factor of the running EMA (0 = never skip)"`
	// WeightTreeFanout relays weight-class broadcasts wider than this
	// through a depth-2 machine tree instead of a star (0 keeps the star).
	// Applies only to the default netsim transport; a caller-supplied
	// Transport configures its own brokers.
	WeightTreeFanout int `flag:"weight-tree" json:"weight_tree_fanout" help:"relay weight broadcasts wider than this through a depth-2 machine tree (0 = star fan-out)"`
	// MaxExplorerRestarts is the per-explorer restart budget: a failed
	// explorer is torn down and re-created from the factory while the
	// budget lasts, and its last error surfaces in Err() once it is spent.
	// 0 keeps the historical fail-fast semantics: the first explorer error
	// surfaces in Err() and nothing restarts. A move off a dead machine
	// spends none of it.
	MaxExplorerRestarts int `flag:"restarts" json:"restarts" help:"restart budget per explorer on agent error (0 = fail fast)"`
	// RestartBackoff is the delay before the first restart of an explorer
	// or learn slot; it doubles per consecutive restart (default 10ms).
	RestartBackoff time.Duration `flag:"restart-backoff" json:"restart_backoff_ms" jsonunit:"ms" help:"initial backoff before an explorer restart (doubles per consecutive restart)"`
	// Topology selects how the training loop's dataflow fragments are
	// replicated and placed. The zero value keeps the fused loop (one
	// learner on machine 0 that plans its own broadcasts); a
	// fragmented topology (Learners >= 1) runs the learn and broadcast
	// fragments as separate processes per the topology's placement,
	// explorers dispatching to the learn replicas, which apply the
	// bounded-staleness rule at ingest.
	Topology Topology
	// LearnerFailover supervises learn replicas in a fragmented topology
	// with >= 2 replicas (§5i): a replica that errors or misses its
	// heartbeat deadline is quarantined — explorers replay its un-acked
	// rollouts to survivors and the broadcaster recommits the survivor
	// mean — and, while MaxLearnerRestarts lasts, respawned from
	// the latest fragment checkpoint under an exponential backoff. A slot
	// whose budget runs out degrades the run to permanent N-1; when every
	// slot has degraded the session fails. Validate rejects it with fewer
	// than 2 replicas (a fused topology or a single replica has no
	// survivor to fail over to).
	LearnerFailover bool
	// MaxLearnerRestarts is the per-replica respawn budget under
	// LearnerFailover or MachineFailover. 0 quarantines without respawning
	// (a failed replica immediately degrades its slot); a move off a dead
	// machine spends none.
	MaxLearnerRestarts int
	// HeartbeatEvery is the replica liveness cadence under LearnerFailover
	// (default 25ms). The broadcast-side detector deadline is four missed
	// beats.
	HeartbeatEvery time.Duration `flag:"heartbeat" json:"heartbeat_ms" jsonunit:"ms" help:"learn-replica liveness cadence under -learner-restarts >= 0 (0 = default 25ms; hung-replica deadline is 4 missed beats)"`
	// MachineFailover arms machine-level fault domains (§5j): the
	// transport's lease-based membership plane declares a silent machine
	// dead and the session re-places every fragment it hosted onto
	// survivors — explorers and learn replicas through their supervisors,
	// the broadcaster through a warm standby rebuilt from surviving state
	// and fragment checkpoints.
	// Validate rejects it without a Transport, over fewer than 2
	// machines, or with fewer than 2 learn replicas, and NewSession rejects
	// a Transport that does not implement MachineFailoverTransport
	// (fabric.Grid does). The coordinator (machine 0) hosts the detector;
	// its own death stays terminal. A re-placement spends no restart budget.
	MachineFailover bool `flag:"machine-failover" json:"machine_failover" help:"survive whole-machine loss: lease-based membership plus fragment re-placement onto survivors (needs -grid, -machines >= 2, -topology replicated, -learners >= 2)"`
	// LeaseEvery is the membership lease renewal period under
	// MachineFailover (0 = the transport default, 25ms for fabric.Grid). A
	// machine silent for four consecutive renewals with a corroborating
	// downed link — or eight regardless of link state — is declared dead.
	// Validate rejects a nonzero LeaseEvery without MachineFailover.
	LeaseEvery time.Duration `flag:"lease-ms" json:"lease_ms" unit:"ms" help:"membership lease renewal period in ms under -machine-failover (0 = default 25ms; death verdict after 4 missed renewals with a downed link)"`
	// MetricsEvery, when > 0 with MetricsWriter set, logs a channel-health
	// summary line for every broker at this interval while the run waits.
	MetricsEvery time.Duration
	// MetricsWriter receives the periodic channel-health summaries.
	MetricsWriter io.Writer
}

// The defaults NewSession puts in place of an unset Config.RestartBackoff
// (the first-restart delay of an explorer or learn slot),
// Config.HeartbeatEvery and, under machine failover, Config.LeaseEvery.
const (
	defaultRestartBackoff = 10 * time.Millisecond
	defaultHeartbeatEvery = 25 * time.Millisecond
	defaultLeaseEvery     = 25 * time.Millisecond // fabric.DefaultLeaseEvery
)

// Validate checks the cross-field rules of a deployment: a knob that needs
// another knob, or a deployment shape, to mean anything is rejected rather
// than silently ignored. NewSession calls it first.
func (c Config) Validate() error {
	switch {
	case c.LearnerFailover && c.Topology.Learners < 2:
		return fmt.Errorf("core: LearnerFailover needs a fragmented topology with >= 2 learn replicas (failover requires a survivor), got %d", c.Topology.Learners)
	case c.LeaseEvery != 0 && !c.MachineFailover:
		return errors.New("core: LeaseEvery tunes the membership plane and needs MachineFailover")
	case c.MachineFailover && c.Transport == nil:
		return errors.New("core: MachineFailover needs a Transport with a membership plane (fabric.Grid), not the simulated network")
	case c.MachineFailover && c.Machines < 2:
		return fmt.Errorf("core: MachineFailover needs >= 2 machines (re-placement requires a survivor machine), got %d", c.Machines)
	case c.MachineFailover && c.Topology.Learners < 2:
		return fmt.Errorf("core: MachineFailover needs a fragmented topology with >= 2 learn replicas (a dead machine's replicas must leave a survivor), got %d", c.Topology.Learners)
	}
	return nil
}

// weightPlane is the weight-plane configuration every broadcast planner
// (the fused learner's or the broadcast fragment's) is built with.
func (c Config) weightPlane() weightplane.Config {
	return weightplane.Config{
		Enabled:    c.WeightDelta,
		QuantBits:  c.WeightQuantBits,
		SkipFactor: c.WeightSkipFactor,
	}
}

// Report summarizes a completed run — the measurements behind Figs. 6–11.
type Report struct {
	// StepsConsumed is the learner's total (throughput numerator).
	StepsConsumed int64
	// TrainIters is the number of training sessions.
	TrainIters int64
	// Duration is the measured wall time.
	Duration time.Duration
	// Throughput is StepsConsumed per second.
	Throughput float64
	// ThroughputSeries is the bucketed steps/s timeline.
	ThroughputSeries []float64
	// MeanWait is the trainer's average block time waiting for rollouts.
	MeanWait time.Duration
	// WaitCDF is the empirical CDF of those waits (Fig. 8(c)).
	WaitCDF []stats.CDFPoint
	// MeanTransmission is the average rollout creation→delivery latency.
	MeanTransmission time.Duration
	// Episodes and MeanReturn aggregate explorer episode statistics.
	Episodes   int64
	MeanReturn float64
	// StepsGenerated is the total steps produced by explorers (including
	// restarted-away incarnations).
	StepsGenerated int64
	// ExplorerRestarts counts explorer restarts performed by supervision.
	ExplorerRestarts int64
	// RestartBudgetExhausted counts explorer slots supervision gave up on:
	// their restart budget ran out or a restart failed (their last error
	// surfaces through Err()).
	RestartBudgetExhausted int64
	// RestartLastError is the most recently recorded explorer failure that
	// supervision handled ("" if none).
	RestartLastError string
	// Channel is the final channel-health snapshot of every broker, taken
	// after shutdown: cumulative traffic/drop counters plus the leak check
	// (Channel.TotalLeaked() must be 0 in a refcount-clean run).
	Channel broker.ClusterHealth
	// Fragments carries the fragment-runtime measurements (nil for fused
	// runs): staleness-filter drops, per-replica consumption, aggregation
	// rounds, and the broadcast fragment's weight-plane counters.
	Fragments *FragmentReport
}

// Session is a running XingTian deployment under a center controller.
type Session struct {
	cfg       Config
	transport Transport
	learner   *LearnFragment // fused topology only
	frags     *fragRuntime   // fragmented topology only
	slots     []*slot[*Explorer]
	ctrlPort  *broker.Port
	agF       AgentFactory
	algF      AlgorithmFactory // retained for learn-replica respawns
	seed      int64
	start     time.Time

	shutdown chan struct{}
	superWG  sync.WaitGroup

	// Machine failover (§5j): mfTransport is the membership-capable
	// transport when armed, mfVerdicts carries death verdicts from the
	// membership detector to the re-placement engine, and mfDead (under
	// mfMu) fences duplicates and steers placement away from dead homes.
	mfTransport MachineFailoverTransport
	mfVerdicts  chan mfVerdict
	mfMu        sync.Mutex
	mfDead      map[int]bool

	statsMu   sync.Mutex
	nodeStats map[string]*message.StatsPayload
	// takeoverByFrag counts ControlTakeover announcements per fragment name
	// and machineDeadSeen the ControlMachineDead verdicts, as observed on
	// the controller's stats channel.
	takeoverByFrag  map[string]int64
	machineDeadSeen int64

	stopOnce sync.Once
	report   *Report

	wg sync.WaitGroup
}

// NewSession builds the full deployment: brokers on every machine, the
// learner on machine 0, and explorers spread round-robin — the structure of
// Fig. 2(b), with the learner's machine as the data-transmission center.
func NewSession(cfg Config, algF AlgorithmFactory, agF AgentFactory, seed int64) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		if cfg.Transport != nil {
			cfg.Transport.Stop()
		}
		return nil, err
	}
	if cfg.NumExplorers < 1 {
		cfg.NumExplorers = 1
	}
	if cfg.Machines < 1 {
		cfg.Machines = 1
	}
	if cfg.RestartBackoff <= 0 {
		cfg.RestartBackoff = defaultRestartBackoff
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = defaultHeartbeatEvery
	}
	if cfg.MachineFailover && cfg.LeaseEvery <= 0 {
		cfg.LeaseEvery = defaultLeaseEvery
	}
	transport := cfg.Transport
	if transport == nil {
		comp := serialize.Compressor{}
		if cfg.Compress {
			comp = serialize.NewCompressor()
		}
		comp.PackNsPerKB = cfg.PlaneNsPerKB
		cluster := broker.NewCluster(netsim.New(cfg.Net))
		for m := 0; m < cfg.Machines; m++ {
			bcfg := broker.Config{
				Compressor:     comp,
				StoreBudget:    cfg.StoreBudget,
				ShedQueueDepth: cfg.ShedQueueDepth,
				RelayFanout:    cfg.WeightTreeFanout,
			}
			if _, err := cluster.AddBrokerCfg(m, bcfg); err != nil {
				cluster.Stop()
				return nil, err
			}
		}
		transport = cluster
	}

	s := &Session{
		cfg:       cfg,
		transport: transport,
		agF:       agF,
		algF:      algF,
		seed:      seed,
		shutdown:  make(chan struct{}),
	}

	if cfg.Topology.fragmented() {
		topo, err := cfg.Topology.normalized(cfg.Machines)
		if err != nil {
			transport.Stop()
			return nil, err
		}
		if err := s.buildFragments(topo, algF); err != nil {
			transport.Stop()
			return nil, err
		}
	} else {
		alg, err := algF(seed)
		if err != nil {
			transport.Stop()
			return nil, fmt.Errorf("core: build algorithm: %w", err)
		}
		if cfg.Resume && cfg.CheckpointPath != "" {
			if err := restoreAlgorithm(alg, cfg.CheckpointPath); err != nil {
				transport.Stop()
				return nil, err
			}
		}
		learnerPort, err := transport.Register(0, LearnerName)
		if err != nil {
			transport.Stop()
			return nil, err
		}
		s.learner = newFusedLearner(alg, learnerPort, cfg)
	}

	ctrlPort, err := transport.Register(0, ControllerName)
	if err != nil {
		transport.Stop()
		return nil, err
	}
	s.ctrlPort = ctrlPort
	s.nodeStats = make(map[string]*message.StatsPayload)
	s.takeoverByFrag = make(map[string]int64)

	ek := s.explorerKind()
	for i := 0; i < cfg.NumExplorers; i++ {
		machine, name := i%cfg.Machines, ExplorerName(int32(i))
		port, err := transport.Register(machine, name)
		if err != nil {
			transport.Stop()
			return nil, err
		}
		ex, err := s.newExplorer(int32(i), port)
		if err != nil {
			transport.Stop()
			return nil, err
		}
		s.slots = append(s.slots, newSlot(ek, i, name, machine, port, ex))
	}

	if cfg.MachineFailover {
		if err := s.armMachineFailover(); err != nil {
			transport.Stop()
			return nil, err
		}
	}
	return s, nil
}

// armMachineFailover checks that the transport has a membership plane (the
// one §5j requirement Config.Validate cannot see) and starts it; verdicts
// are enqueued for the re-placement engine (started in Start).
func (s *Session) armMachineFailover() error {
	mft, ok := s.transport.(MachineFailoverTransport)
	if !ok {
		return fmt.Errorf("core: MachineFailover requires a membership-capable transport (fabric.Grid); got %T", s.transport)
	}
	s.mfTransport = mft
	s.mfDead = make(map[int]bool)
	// One verdict per machine fits the buffer, so the non-blocking enqueue
	// below can never drop a verdict.
	s.mfVerdicts = make(chan mfVerdict, mft.Machines())
	onDead := func(machine, epoch int) {
		select {
		case s.mfVerdicts <- mfVerdict{machine: machine, epoch: epoch}:
		default:
		}
	}
	if err := mft.StartMembership(coordinatorMachine, s.cfg.LeaseEvery, leaseMisses, onDead); err != nil {
		return fmt.Errorf("core: start membership plane: %w", err)
	}
	return nil
}

// restoreAlgorithm reinstates the newest readable checkpoint at path into
// the algorithm before training starts. A missing checkpoint is a fresh
// start, not an error; a checkpoint that exists but cannot be applied is.
func restoreAlgorithm(alg Algorithm, path string) error {
	st, err := checkpoint.LoadLatest(path)
	if errors.Is(err, checkpoint.ErrNoCheckpoint) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	if err := alg.RestoreWeights(st.Version, st.Weights); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	return nil
}

// buildFragments constructs the fragment runtime for a fragmented topology:
// N algorithm replicas from the same factory and seed (identical
// initialization, so the broadcast fragment's first aggregate is exact), one
// learn fragment per replica, and the broadcast fragment seeded with the
// shared initial weights — or the per-fragment checkpoint set when resuming.
func (s *Session) buildFragments(topo Topology, algF AlgorithmFactory) error {
	algs := make([]Algorithm, topo.Learners)
	for i := range algs {
		alg, err := algF(s.seed)
		if err != nil {
			return fmt.Errorf("core: build algorithm replica %d: %w", i, err)
		}
		algs[i] = alg
	}

	w0 := algs[0].Weights()
	initVersion, initWeights := w0.Version, w0.Data
	if s.cfg.Resume && s.cfg.CheckpointPath != "" {
		states, err := checkpoint.LoadLatestFragments(s.cfg.CheckpointPath)
		switch {
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// Fresh start.
		case err != nil:
			return fmt.Errorf("core: resume fragments: %w", err)
		default:
			byName := make(map[string]checkpoint.State, len(states))
			for _, fs := range states {
				byName[fs.Name] = fs.State
			}
			for i, alg := range algs {
				st, ok := byName[LearnName(i)]
				if !ok {
					continue // replica added since the checkpoint: keeps fresh init
				}
				if err := alg.RestoreWeights(st.Version, st.Weights); err != nil {
					return fmt.Errorf("core: resume fragment %s: %w", LearnName(i), err)
				}
			}
			if st, ok := byName[BroadcastName]; ok {
				initVersion, initWeights = st.Version, st.Weights
			}
		}
	}

	// Validate guarantees a survivor (>= 2 replicas) whenever either is set.
	// Machine failover implies replica failover: a dead machine's replicas
	// move through the same supervisors.
	f := &fragRuntime{
		topo:     topo,
		failover: s.cfg.LearnerFailover || s.cfg.MachineFailover,
		maxSteps: s.cfg.MaxSteps,
		done:     make(chan struct{}),
		stopMon:  make(chan struct{}),
	}
	s.frags = f
	learnNames := replicaNames(topo.Learners)
	lk := s.learnKind()
	for i, alg := range algs {
		port, err := s.transport.Register(topo.LearnMachines[i], learnNames[i])
		if err != nil {
			return err
		}
		frag := s.newReplica(i, alg, port)
		if f.failover {
			frag.SetFailover(0, s.cfg.HeartbeatEvery)
		}
		f.slots = append(f.slots, newSlot(lk, i, learnNames[i], topo.LearnMachines[i], port, frag))
	}
	castPort, err := s.transport.Register(topo.BroadcastMachine, BroadcastName)
	if err != nil {
		return err
	}
	f.caster = newSlot(s.casterKind(learnNames), 0, BroadcastName, topo.BroadcastMachine, castPort,
		s.newCaster(castPort, learnNames, initVersion, initWeights))
	return nil
}

// newReplica builds learn replica id over port, holding its ingest to the
// topology's staleness bound, counting into the runtime's tallies and
// forwarding explorer acks to the broadcaster.
func (s *Session) newReplica(id int, alg Algorithm, port *broker.Port) *LearnFragment {
	l := NewLearnFragment(id, alg, port, s.cfg.NumExplorers, s.cfg.SeriesBucket)
	l.maxStale = s.frags.topo.MaxStaleness
	l.counts = &s.frags.counts
	l.acked = make(map[string]int64)
	return l
}

// explorerNames lists the client names of explorers 0…n-1.
func explorerNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = ExplorerName(int32(i))
	}
	return names
}

// newCaster builds a broadcast fragment whose committed model starts at
// version with weights, its replica deadline detector armed under failover.
func (s *Session) newCaster(port *broker.Port, learnNames []string, version int64, weights []float32) *BroadcastFragment {
	b := NewBroadcastFragment(port, BroadcastConfig{
		Explorers:       explorerNames(s.cfg.NumExplorers),
		Learners:        learnNames,
		InitialVersion:  version,
		InitialWeights:  weights,
		WeightPlane:     s.cfg.weightPlane(),
		CheckpointPath:  s.cfg.CheckpointPath,
		CheckpointEvery: s.cfg.CheckpointEvery,
		CheckpointKeep:  s.cfg.CheckpointKeep,
	})
	if s.frags.failover {
		b.SetFailover(heartbeatMisses*s.cfg.HeartbeatEvery, s.frags.suspect)
	}
	return b
}

// newExplorer creates one explorer incarnation over the slot's port, with a
// fresh agent from the factory. In a fragment topology it dispatches to the
// learn replicas not degraded out of the run, starting its round-robin at
// its own id; one quarantined but not yet respawned counts as live, and the
// notices that follow correct it.
func (s *Session) newExplorer(id int32, port *broker.Port) (*Explorer, error) {
	agent, err := s.agF(id, s.seed+int64(id)+1)
	if err != nil {
		return nil, fmt.Errorf("core: build agent %d: %w", id, err)
	}
	ex := NewExplorer(id, agent, port, s.cfg.RolloutLen)
	if s.cfg.MaxInflight != 0 {
		ex.SetMaxInflight(s.cfg.MaxInflight)
	}
	if f := s.frags; f != nil {
		_, live, _ := f.replicaStates()
		ex.route = dispatch{
			replicas: replicaNames(f.topo.Learners),
			live:     live,
			maxStale: f.topo.MaxStaleness,
			next:     int(id),
			counts:   &f.counts,
		}
		if f.failover {
			ex.route.inflight = make(map[string][]inflightRollout)
		}
	}
	return ex, nil
}

// explorerKind restarts an explorer over the port its slot keeps: the
// retiree is stopped, nudged off its port and joined, and the successor
// gets a fresh agent. Losing an explorer slot fails the run.
func (s *Session) explorerKind() *slotKind[*Explorer] {
	return &slotKind[*Explorer]{
		budget: s.cfg.MaxExplorerRestarts,
		build: func(id int, _ *Explorer, port *broker.Port, _ int32) (*Explorer, error) {
			return s.newExplorer(int32(id), port)
		},
		retire: func(name string, old *Explorer) bool {
			old.Stop()
			nudge(old.port, name)
			old.Join()
			return true
		},
		fold: func(old *Explorer, prior *tally) {
			prior.steps += old.StepsGenerated()
			n, mean := old.EpisodeStats()
			prior.episodes += n
			prior.returnSum += mean * float64(n)
		},
		fatal:       func() bool { return true },
		rebroadcast: true,
		detach:      true,
	}
}

// Start launches every process and seeds explorers with the learner's
// initial weights so all behavior policies begin in sync. The center
// controller's collector thread starts here too, receiving the periodic
// statistics messages workhorse threads emit, and so do the supervisors of
// the explorer and learn slots that have them.
func (s *Session) Start() {
	s.start = time.Now()
	s.wg.Add(1)
	go s.collectStats()
	if s.frags != nil {
		// Fragments first: the broadcast fragment's initial broadcast lands
		// in the explorer ID queues before any explorer starts sampling.
		s.frags.start()
	} else {
		s.learner.Start()
	}
	for _, sl := range s.slots {
		sl.current().Start()
	}
	for _, sl := range s.slots {
		s.superWG.Add(1)
		go supervise(s, sl)
	}
	if s.frags != nil && s.frags.failover {
		for _, sl := range s.frags.slots {
			s.superWG.Add(1)
			go supervise(s, sl)
		}
	}
	if s.mfTransport != nil {
		s.superWG.Add(1)
		go s.machineFailoverLoop()
	}
	if s.frags == nil {
		s.learner.publish(nil)
	}
}

// collectStats is the center controller's receive loop: periodic node
// statistics, plus the machine-failover record — takeover announcements and
// death verdicts the re-placement engine posts to the controller.
func (s *Session) collectStats() {
	defer s.wg.Done()
	for {
		m, err := s.ctrlPort.Recv()
		if err != nil {
			return // broker stopped
		}
		switch body := m.Body.(type) {
		case *message.StatsPayload:
			s.statsMu.Lock()
			s.nodeStats[body.Node] = body
			s.statsMu.Unlock()
		case *message.ControlPayload:
			switch body.Kind {
			case message.ControlTakeover:
				s.statsMu.Lock()
				s.takeoverByFrag[body.Peer]++
				s.statsMu.Unlock()
			case message.ControlMachineDead:
				s.statsMu.Lock()
				s.machineDeadSeen++
				s.statsMu.Unlock()
			}
		}
	}
}

// ControllerStats snapshots the latest statistics message per node, as
// collected by the center controller. Only TestControllerCollectsStats
// calls it, to read the statistics pipeline end to end.
func (s *Session) ControllerStats() map[string]message.StatsPayload {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	out := make(map[string]message.StatsPayload, len(s.nodeStats))
	for k, v := range s.nodeStats {
		out[k] = *v
	}
	return out
}

// Wait blocks until the learner reaches its goal or the optional wall-clock
// limit expires.
func (s *Session) Wait() {
	var timeout <-chan time.Time
	if s.cfg.MaxDuration > 0 {
		t := time.NewTimer(s.cfg.MaxDuration)
		defer t.Stop()
		timeout = t.C
	}
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	lastMetrics := time.Now()
	var done <-chan struct{}
	if s.frags != nil {
		done = s.frags.done
	} else {
		done = s.learner.Done()
	}
	for {
		select {
		case <-done:
			return
		case <-timeout:
			return
		case <-ticker.C:
			if s.cfg.MetricsEvery > 0 && s.cfg.MetricsWriter != nil &&
				time.Since(lastMetrics) >= s.cfg.MetricsEvery {
				lastMetrics = time.Now()
				fmt.Fprintf(s.cfg.MetricsWriter, "channel: %s\n", s.ChannelHealth().Summary())
			}
		}
	}
}

func (s *Session) aggregateEpisodes() (int64, float64) {
	var episodes int64
	var weighted float64
	for _, sl := range s.slots {
		sl.mu.Lock()
		n, mean := sl.cur.EpisodeStats()
		episodes += n + sl.prior.episodes
		weighted += mean*float64(n) + sl.prior.returnSum
		sl.mu.Unlock()
	}
	if episodes == 0 {
		return 0, 0
	}
	return episodes, weighted / float64(episodes)
}

// supervisionStats snapshots restart accounting across slots.
func (s *Session) supervisionStats() (restarts, exhausted int64, lastErr string) {
	for _, sl := range s.slots {
		sl.mu.Lock()
		restarts += sl.restarts
		if sl.degraded {
			exhausted++
		}
		if sl.lastErr != nil {
			lastErr = sl.lastErr.Error()
		}
		sl.mu.Unlock()
	}
	return restarts, exhausted, lastErr
}

// Stop shuts the deployment down: a shutdown command is broadcast to every
// process (the center controller's role in the paper), then brokers close
// and all threads are joined. Stop is idempotent — every call returns the
// same *Report, measured when the first call ran.
func (s *Session) Stop() *Report {
	s.stopOnce.Do(func() { s.report = s.doStop() })
	return s.report
}

func (s *Session) doStop() *Report {
	duration := time.Since(s.start)

	// End supervision first so the explorer set is stable: supervisors
	// finish any in-flight teardown and stop replacing incarnations.
	close(s.shutdown)
	s.superWG.Wait()

	// Broadcast shutdown like the center controller.
	dst := make([]string, 0, len(s.slots)+4)
	for _, sl := range s.slots {
		dst = append(dst, sl.name)
	}
	if s.frags != nil {
		for i := range s.frags.slots {
			dst = append(dst, LearnName(i))
		}
		dst = append(dst, BroadcastName)
	} else {
		dst = append(dst, LearnerName)
	}
	_ = s.ctrlPort.Send(message.New(message.TypeControl, ControllerName, dst,
		&message.ControlPayload{Kind: message.ControlShutdown}))

	if s.frags != nil {
		s.frags.stop()
	} else {
		s.learner.Stop()
	}
	for _, sl := range s.slots {
		sl.current().Stop()
	}
	s.transport.Stop() // closes ID queues, unblocking every receive
	if s.frags != nil {
		s.frags.join()
	} else {
		s.learner.Join()
	}
	for _, sl := range s.slots {
		sl.current().Join()
	}
	s.wg.Wait() // the controller's collector thread

	// Judge failures supervision never got to (the error raced Stop), as
	// the supervisor would have.
	for _, sl := range s.slots {
		sl.mu.Lock()
		err, degraded := sl.cur.Err(), sl.degraded
		sl.mu.Unlock()
		if err != nil && !degraded && !s.machineDead(sl.home()) {
			judge(sl, err)
		}
	}

	episodes, meanReturn := s.aggregateEpisodes()
	var generated int64
	for _, sl := range s.slots {
		sl.mu.Lock()
		generated += sl.cur.StepsGenerated() + sl.prior.steps
		sl.mu.Unlock()
	}
	restarts, exhausted, lastErr := s.supervisionStats()
	channel := s.transport.Health()
	channel.Supervision = broker.SupervisionStats{
		ExplorerRestarts: restarts,
		BudgetExhausted:  exhausted,
		LastRestartError: lastErr,
	}
	var steps, iters int64
	var series []float64
	var meanWait, meanTrans time.Duration
	var waitCDF []stats.CDFPoint
	var fragRep *FragmentReport
	if s.frags != nil {
		steps = s.frags.stepsConsumed()
		iters = s.frags.trainIters()
		series = s.frags.mergedSeries()
		learns := s.frags.learns()
		waitHists := make([]*stats.Histogram, 0, len(learns))
		transHists := make([]*stats.Histogram, 0, len(learns))
		for _, l := range learns {
			waitHists = append(waitHists, l.WaitHist)
			transHists = append(transHists, l.TransHist)
		}
		meanWait = meanOver(waitHists)
		waitCDF = busiest(waitHists).CDF()
		meanTrans = meanOver(transHists)
		fragRep = s.frags.report()
		if s.mfTransport != nil {
			fragRep.LeaseRenewals, fragRep.MachineVerdicts = s.mfTransport.MembershipStats()
			s.statsMu.Lock()
			if len(s.takeoverByFrag) > 0 {
				fragRep.TakeoverByFragment = make(map[string]int64, len(s.takeoverByFrag))
				for k, v := range s.takeoverByFrag {
					fragRep.TakeoverByFragment[k] = v
				}
			}
			s.statsMu.Unlock()
		}
	} else {
		steps = s.learner.StepsConsumed()
		iters = s.learner.TrainIters()
		series = s.learner.Series.PerSecond()
		meanWait = s.learner.WaitHist.Mean()
		waitCDF = s.learner.WaitHist.CDF()
		meanTrans = s.learner.TransHist.Mean()
	}
	rep := &Report{
		StepsConsumed:          steps,
		TrainIters:             iters,
		Duration:               duration,
		Throughput:             float64(steps) / duration.Seconds(),
		ThroughputSeries:       series,
		MeanWait:               meanWait,
		WaitCDF:                waitCDF,
		MeanTransmission:       meanTrans,
		Episodes:               episodes,
		MeanReturn:             meanReturn,
		StepsGenerated:         generated,
		ExplorerRestarts:       restarts,
		RestartBudgetExhausted: exhausted,
		RestartLastError:       lastErr,
		Channel:                channel,
		Fragments:              fragRep,
	}
	return rep
}

// ChannelHealth snapshots live channel metrics for every broker plus
// supervision counters (usable while the session runs; Report.Channel holds
// the final snapshot).
func (s *Session) ChannelHealth() broker.ClusterHealth {
	h := s.transport.Health()
	restarts, exhausted, lastErr := s.supervisionStats()
	h.Supervision = broker.SupervisionStats{
		ExplorerRestarts: restarts,
		BudgetExhausted:  exhausted,
		LastRestartError: lastErr,
	}
	return h
}

// Learner exposes the fused topology's learn loop for inspection in tests
// and experiments. It is nil under a fragmented topology — use Fragments
// instead.
func (s *Session) Learner() *LearnFragment { return s.learner }

// Fragments exposes the fragment runtime's pieces for inspection in tests
// and experiments (learn replicas, broadcaster). Both nil for a fused
// topology.
func (s *Session) Fragments() ([]*LearnFragment, *BroadcastFragment) {
	if s.frags == nil {
		return nil, nil
	}
	return s.frags.learns(), s.frags.caster.current()
}

// Err returns the first process error observed, if any. A fused learner's
// error always surfaces, and so does a learn replica's without failover. An
// explorer slot, or a learn slot under failover, surfaces only the error it
// degraded with, when that fails the run — an exhausted restart budget or a
// failed restart — since handled errors were restarted away.
func (s *Session) Err() error {
	if s.frags != nil {
		if err := s.frags.err(); err != nil {
			return err
		}
	} else if err := s.learner.Err(); err != nil {
		return err
	}
	for _, sl := range s.slots {
		if err := sl.err(); err != nil {
			return err
		}
	}
	return nil
}

// Run executes a full session: build, start, wait, stop.
func Run(cfg Config, algF AlgorithmFactory, agF AgentFactory, seed int64) (*Report, error) {
	s, err := NewSession(cfg, algF, agF, seed)
	if err != nil {
		return nil, err
	}
	s.Start()
	s.Wait()
	rep := s.Stop()
	if err := s.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}
