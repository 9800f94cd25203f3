// Package faultinject provides deterministic fault injection for chaos
// testing the channel's fault-tolerance layer: agent crashes after a fixed
// number of rollouts, connection resets on the Kth frame write, frame
// corruption, and latency spikes — all driven by one seeded schedule so a
// failing chaos run replays bit-for-bit.
//
// The injector plugs into the system at three seams:
//
//   - fabric: Injector.WrapConn wraps each dialed/accepted net.Conn
//     (fabric.Node.SetConnWrapper / fabric.GridOptions.ConnWrapper), counting
//     frame writes and injecting resets and corruption on the wire.
//     WrapConnFor additionally tags each wrapped conn with its machine so
//     direction-aware faults can match one side of a link: NewMachineKill
//     severs a whole grid machine (every conn plus its broker) after a
//     scheduled write count, and NewPartition blackholes one A→B direction
//     while the reverse path keeps flowing — the asymmetric-partition case
//     the membership plane's corroboration logic exists for.
//   - netsim: Injector satisfies netsim.FaultHook, adding latency spikes to
//     simulated transfers.
//   - core: Injector.NewAgentFault hands each explorer incarnation a
//     deterministic crash schedule for its Rollout loop; NewCrash does the
//     same for learn replicas (a one-shot error inside a training step).
//
// All counters are process-global within one Injector, so a schedule like
// "reset every 40th write" interleaves deterministically across connections
// as long as the calling goroutine structure is deterministic; under real
// concurrency the injector still guarantees the same *number* of faults per
// write count, which is what the chaos tests assert.
package faultinject

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config is one deterministic fault schedule. Zero values disable the
// corresponding fault class.
type Config struct {
	// Seed drives every pseudo-random choice (corruption offsets). Runs
	// with equal Config produce identical fault schedules.
	Seed int64
	// AgentFailAfterRollouts makes the *first* incarnation of each agent
	// fault handle fail once after this many Rollout calls; restarted
	// incarnations run clean (the crash-then-recover shape supervision is
	// built for).
	AgentFailAfterRollouts int
	// ConnResetEveryKWrites closes the underlying connection on every Kth
	// Write across all wrapped connections, making the write fail — a
	// mid-stream TCP reset.
	ConnResetEveryKWrites int
	// CorruptEveryNWrites flips one byte (at a seeded offset) in every Nth
	// Write. The receiver's framing detects this as a corrupt stream.
	CorruptEveryNWrites int
	// LatencySpikeEveryN adds LatencySpike to every Nth netsim transfer.
	LatencySpikeEveryN int
	// LatencySpike is the injected delay per spike (default 5ms when
	// LatencySpikeEveryN is set).
	LatencySpike time.Duration
}

// Injector is a seeded fault source. It is safe for concurrent use.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	writes    atomic.Int64
	transfers atomic.Int64

	resets         atomic.Int64
	corruptions    atomic.Int64
	spikes         atomic.Int64
	agentFaults    atomic.Int64
	machineKills   atomic.Int64
	partitionDrops atomic.Int64

	// kills and partitions are armed before traffic flows and read on every
	// write; the pointers swap atomically so the hot path takes no lock.
	kills      atomic.Pointer[[]*MachineKill]
	partitions atomic.Pointer[[]*Partition]
}

// New builds an injector for the given schedule.
func New(cfg Config) *Injector {
	if cfg.LatencySpikeEveryN > 0 && cfg.LatencySpike <= 0 {
		cfg.LatencySpike = 5 * time.Millisecond
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats reports how many faults of each class the injector has fired.
type Stats struct {
	// ConnResets, Corruptions, LatencySpikes and AgentFaults count fired
	// faults per class.
	ConnResets    int64
	Corruptions   int64
	LatencySpikes int64
	AgentFaults   int64
	// MachineKills counts fired whole-machine kill faults; PartitionDrops
	// counts frames blackholed by armed asymmetric partitions.
	MachineKills   int64
	PartitionDrops int64
	// Writes and Transfers count the observed events the schedules key on.
	Writes    int64
	Transfers int64
}

// Stats snapshots the fired-fault counters.
func (i *Injector) Stats() Stats {
	return Stats{
		ConnResets:     i.resets.Load(),
		Corruptions:    i.corruptions.Load(),
		LatencySpikes:  i.spikes.Load(),
		AgentFaults:    i.agentFaults.Load(),
		MachineKills:   i.machineKills.Load(),
		PartitionDrops: i.partitionDrops.Load(),
		Writes:         i.writes.Load(),
		Transfers:      i.transfers.Load(),
	}
}

// String renders the snapshot human-readably.
func (s Stats) String() string {
	return fmt.Sprintf("faults: resets=%d corruptions=%d spikes=%d agent=%d kills=%d partitionDrops=%d (writes=%d transfers=%d)",
		s.ConnResets, s.Corruptions, s.LatencySpikes, s.AgentFaults, s.MachineKills, s.PartitionDrops, s.Writes, s.Transfers)
}

// TransferDelay implements netsim.FaultHook: every Nth simulated transfer
// gets the configured latency spike added to its wire time.
func (i *Injector) TransferDelay(src, dst, size int) time.Duration {
	if i == nil || i.cfg.LatencySpikeEveryN <= 0 {
		return 0
	}
	n := i.transfers.Add(1)
	if n%int64(i.cfg.LatencySpikeEveryN) == 0 {
		i.spikes.Add(1)
		return i.cfg.LatencySpike
	}
	return 0
}

// WrapConn wraps a fabric connection with the injector's write-side fault
// schedule. It is shaped for fabric.Node.SetConnWrapper. Conns wrapped this
// way carry no machine tag (src -1): partitions armed for a specific source
// machine never match them.
func (i *Injector) WrapConn(conn net.Conn) net.Conn {
	return &faultConn{Conn: conn, inj: i, src: -1}
}

// WrapConnFor returns a conn wrapper that tags every wrapped connection
// with the wrapping machine's ID, so direction-aware faults can match the
// (from, to) orientation of a link. Shaped for
// fabric.GridOptions.ConnWrapperFor; TestMembershipAsymmetricPartition
// (fabric) and TestFragmentTopologyCI's machine-kill legs (core) use it.
func (i *Injector) WrapConnFor(machine int) func(net.Conn) net.Conn {
	return func(conn net.Conn) net.Conn {
		return &faultConn{Conn: conn, inj: i, src: machine}
	}
}

// MachineKill is a one-shot whole-machine death schedule: once the
// deployment-wide write count crosses the threshold, the kill callback
// (typically fabric.Grid.Kill) fires exactly once. The callback runs on its
// own goroutine — never inline under the triggering connection's write lock,
// where stopping the machine's broker and severing its conns would deadlock
// against the write path that tripped the schedule.
type MachineKill struct {
	inj   *Injector
	after int64
	kill  func()
	fired atomic.Bool
}

// NewMachineKill arms a whole-machine kill after the given number of frame
// writes across the deployment. The schedule is deterministic for a fixed
// write interleaving (and the fired-fault *count* is deterministic
// regardless); the kill callback severs the victim's conns and stops its
// broker. Arm before traffic flows. TestFragmentTopologyCI's machine-kill
// legs (core) arm it.
func (i *Injector) NewMachineKill(afterWrites int, kill func()) *MachineKill {
	mk := &MachineKill{inj: i, after: int64(afterWrites), kill: kill}
	for {
		old := i.kills.Load()
		var next []*MachineKill
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, mk)
		if i.kills.CompareAndSwap(old, &next) {
			return mk
		}
	}
}

// Fired reports whether the kill has been triggered (TestFragmentTopologyCI
// checks it).
func (mk *MachineKill) Fired() bool { return mk.fired.Load() }

// Partition is an armed asymmetric link fault: once the deployment-wide
// write count passes the trigger, frames written by machine `from` to the
// peer listening at `toAddr` are silently blackholed — reported to the
// writer as delivered, never received. The reverse direction keeps flowing,
// which is exactly the half-open failure the membership plane's doubled
// grace window exists for.
type Partition struct {
	inj    *Injector
	from   int
	toAddr string
	after  int64
	healed atomic.Bool
	drops  atomic.Int64
}

// NewPartition arms an A→B drop: writes from machine `from` (-1 matches any
// untagged or tagged source) toward toAddr are blackholed after the given
// deployment-wide write count. Requires conns wrapped via WrapConnFor for a
// specific `from` to tag the direction. Arm before traffic flows.
// TestMembershipAsymmetricPartition (fabric) arms and heals one.
func (i *Injector) NewPartition(from int, toAddr string, afterWrites int) *Partition {
	p := &Partition{inj: i, from: from, toAddr: toAddr, after: int64(afterWrites)}
	for {
		old := i.partitions.Load()
		var next []*Partition
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, p)
		if i.partitions.CompareAndSwap(old, &next) {
			return p
		}
	}
}

// Heal lifts the partition: subsequent writes flow again
// (TestMembershipAsymmetricPartition).
func (p *Partition) Heal() { p.healed.Store(true) }

// Drops reports how many writes this partition has blackholed.
func (p *Partition) Drops() int64 { return p.drops.Load() }

// corruptOffset picks a seeded byte offset within a frame of length n.
func (i *Injector) corruptOffset(n int) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rng.Intn(n)
}

// faultConn injects resets, corruption, and latency on the write path. The
// read path passes through untouched: a reset injected on one end surfaces
// as an EOF/ECONNRESET read error on the other, exactly like a real link
// failure.
type faultConn struct {
	net.Conn
	inj *Injector
	src int // wrapping machine ID, -1 when untagged (WrapConn)
}

func (c *faultConn) Write(p []byte) (int, error) {
	inj := c.inj
	n := inj.writes.Add(1)
	if kills := inj.kills.Load(); kills != nil {
		for _, mk := range *kills {
			if n >= mk.after && mk.fired.CompareAndSwap(false, true) {
				inj.machineKills.Add(1)
				go mk.kill()
			}
		}
	}
	if parts := inj.partitions.Load(); parts != nil {
		for _, pt := range *parts {
			if n >= pt.after && !pt.healed.Load() &&
				(pt.from == -1 || pt.from == c.src) &&
				c.Conn.RemoteAddr().String() == pt.toAddr {
				pt.drops.Add(1)
				inj.partitionDrops.Add(1)
				return len(p), nil // blackholed: the writer believes it was sent
			}
		}
	}
	if k := inj.cfg.ConnResetEveryKWrites; k > 0 && n%int64(k) == 0 {
		inj.resets.Add(1)
		_ = c.Conn.Close()
		return 0, fmt.Errorf("faultinject: connection reset on write %d", n)
	}
	if k := inj.cfg.CorruptEveryNWrites; k > 0 && n%int64(k) == 0 && len(p) > 0 {
		// Corrupt a copy: the caller's buffer may be pooled and must not be
		// mutated behind its back.
		dup := make([]byte, len(p))
		copy(dup, p)
		dup[inj.corruptOffset(len(dup))] ^= 0xFF
		inj.corruptions.Add(1)
		return c.Conn.Write(dup)
	}
	return c.Conn.Write(p)
}

// AgentFault is one agent incarnation's crash schedule, handed out by
// NewAgentFault. The first incarnation per fault handle fails once after the
// configured rollout count; later incarnations (restarts) run clean.
type AgentFault struct {
	inj       *Injector
	failAfter int

	mu       sync.Mutex
	rollouts int
	fired    bool
}

// NewAgentFault returns a crash schedule for one explorer slot. Call once
// per slot; pass the handle to every incarnation's agent via the factory so
// a restarted agent shares the slot's (already fired) schedule.
func (i *Injector) NewAgentFault() *AgentFault {
	return &AgentFault{inj: i, failAfter: i.cfg.AgentFailAfterRollouts}
}

// NewCrash returns a one-shot crash schedule firing after n guarded calls,
// independent of the config-driven agent schedule. TestChaosFragmentTopology
// uses it to kill one specific learn replica after a fixed number of trains
// while the explorer schedules run their own counts.
func (i *Injector) NewCrash(n int) *AgentFault {
	return &AgentFault{inj: i, failAfter: n}
}

// ShouldFail reports whether this Rollout call must return an error. It
// fires exactly once, after the configured number of clean rollouts, and
// never again for the same handle.
func (f *AgentFault) ShouldFail() bool {
	if f == nil || f.failAfter <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fired {
		return false
	}
	f.rollouts++
	if f.rollouts > f.failAfter {
		f.fired = true
		f.inj.agentFaults.Add(1)
		return true
	}
	return false
}
