package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/message"
)

// Machine-level membership plane (DESIGN.md §5j).
//
// Each non-coordinator machine runs a memberd sender that renews a lease
// with the session coordinator every LeaseEvery by sending a
// ControlLeaseRenew message from its broker to the coordinator's lease sink
// — the renewals ride the ordinary broker+fabric data path, so a lease that
// keeps arriving proves the whole stack (broker, forwarder, link, remote
// broker) is alive, not just the TCP connection. The coordinator's detector
// declares a machine dead when its lease is overdue by the miss budget AND
// the fabric's per-peer connection state corroborates the loss; a machine
// whose coordinator-facing link still looks connected (an asymmetric
// partition: renewals blackholed, reverse direction healthy) is given
// partitionGraceWindows times the miss budget before the verdict fires on
// lease silence alone — silence without link corroboration is weak evidence
// (a scheduler stall or GC pause looks identical), so it needs a much
// longer budget than a confirmed link loss. Verdicts are
// epoch-fenced and fire exactly once per machine — machines never rejoin a
// session (a rejoining process gets a fresh machine slot in a future
// session), so the verdict epoch is always 1.

// DefaultLeaseEvery is the lease renewal period when the caller passes zero.
const DefaultLeaseEvery = 25 * time.Millisecond

// DefaultLeaseMisses is the consecutive-miss budget when the caller passes
// zero: a lease overdue by misses*every (with a downed link) or
// partitionGraceWindows*misses*every (link still connected) produces the
// MachineDead verdict.
const DefaultLeaseMisses = 4

// partitionGraceWindows scales the miss budget for a peer whose
// coordinator-facing link still reads connected: the verdict then fires on
// lease silence alone (the asymmetric-partition case), and pure silence
// must be sustained far longer than a corroborated link loss before it
// counts as death.
const partitionGraceWindows = 8

// memberdCoordName is the coordinator's lease-sink port name.
const memberdCoordName = "memberd-coord"

// memberdName names machine m's lease-renewal port.
func memberdName(m int) string { return fmt.Sprintf("memberd-%d", m) }

// membership is the grid's lease plane: renewal senders on every
// non-coordinator machine, plus the receiver and detector on the
// coordinator.
type membership struct {
	grid        *Grid
	coordinator int
	every       time.Duration
	misses      int
	onDead      func(machine, epoch int)

	coordPort *broker.Port
	stopCh    chan struct{}
	stopOne   sync.Once
	wg        sync.WaitGroup

	renewals atomic.Int64
	verdicts atomic.Int64

	mu       sync.Mutex
	lastSeen map[int]time.Time
	dead     map[int]int // machine → verdict epoch (fired once)
}

// StartMembership arms the lease-based membership plane: machine
// `coordinator` hosts the lease sink and the death detector, every other
// machine renews a lease each `every` (zero: DefaultLeaseEvery), and a
// machine missing `misses` consecutive renewals (zero: DefaultLeaseMisses)
// with a corroborating downed link — or partitionGraceWindows times that
// budget regardless of link state, covering asymmetric partitions — is
// declared dead: onDead
// fires exactly once per machine, on the detector goroutine, with the
// verdict epoch. Call once, before traffic that must be survivable.
func (g *Grid) StartMembership(coordinator int, every time.Duration, misses int, onDead func(machine, epoch int)) error {
	if len(g.nodes) < 2 {
		return fmt.Errorf("fabric: membership needs at least 2 machines, got %d", len(g.nodes))
	}
	if coordinator < 0 || coordinator >= len(g.nodes) {
		return fmt.Errorf("fabric: membership coordinator %d out of range", coordinator)
	}
	if every <= 0 {
		every = DefaultLeaseEvery
	}
	if misses <= 0 {
		misses = DefaultLeaseMisses
	}
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return fmt.Errorf("fabric: grid stopped")
	}
	if g.member != nil {
		g.mu.Unlock()
		return fmt.Errorf("fabric: membership already started")
	}
	g.mu.Unlock()

	m := &membership{
		grid:        g,
		coordinator: coordinator,
		every:       every,
		misses:      misses,
		onDead:      onDead,
		stopCh:      make(chan struct{}),
		lastSeen:    make(map[int]time.Time),
		dead:        make(map[int]int),
	}
	coordPort, err := g.Register(coordinator, memberdCoordName)
	if err != nil {
		return fmt.Errorf("fabric: membership sink: %w", err)
	}
	m.coordPort = coordPort
	// Every machine starts with a fresh implicit lease so the detector's
	// first checks measure real silence, not startup skew.
	now := time.Now()
	for i := range g.nodes {
		if i != coordinator {
			m.lastSeen[i] = now
		}
	}
	for i := range g.nodes {
		if i == coordinator {
			continue
		}
		port, rerr := g.Register(i, memberdName(i))
		if rerr != nil {
			m.stop()
			return fmt.Errorf("fabric: membership renewer %d: %w", i, rerr)
		}
		m.wg.Add(1)
		go m.renewLoop(i, port)
	}
	m.wg.Add(2)
	go m.recvLoop()
	go m.detectLoop()
	g.mu.Lock()
	g.member = m
	g.mu.Unlock()
	return nil
}

// MembershipStats reports the lease plane's counters: renewals received by
// the coordinator and machine-death verdicts fired. Zero when membership
// was never started.
func (g *Grid) MembershipStats() (renewals, verdicts int64) {
	g.mu.Lock()
	m := g.member
	g.mu.Unlock()
	if m == nil {
		return 0, 0
	}
	return m.renewals.Load(), m.verdicts.Load()
}

// renewLoop sends one lease renewal per period until the grid stops or the
// machine's broker dies (a killed machine stops renewing by construction).
func (m *membership) renewLoop(machine int, port *broker.Port) {
	defer m.wg.Done()
	tick := time.NewTicker(m.every)
	defer tick.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-tick.C:
		}
		msg := message.New(message.TypeControl, memberdName(machine), []string{memberdCoordName},
			&message.ControlPayload{Kind: message.ControlLeaseRenew, Machine: machine})
		if err := port.Send(msg); err != nil {
			return // broker stopped: the machine is dead or the grid is going down
		}
	}
}

// recvLoop stamps lastSeen for every renewal reaching the coordinator.
func (m *membership) recvLoop() {
	defer m.wg.Done()
	for {
		msg, err := m.coordPort.Recv()
		if err != nil {
			return // sink unregistered (stop) or coordinator broker gone
		}
		cp, ok := msg.Body.(*message.ControlPayload)
		if !ok || cp.Kind != message.ControlLeaseRenew {
			continue
		}
		m.renewals.Add(1)
		m.mu.Lock()
		m.lastSeen[cp.Machine] = time.Now()
		m.mu.Unlock()
	}
}

// detectLoop checks every lease each period and fires MachineDead verdicts.
func (m *membership) detectLoop() {
	defer m.wg.Done()
	tick := time.NewTicker(m.every)
	defer tick.Stop()
	coordNode := m.grid.nodes[m.coordinator]
	window := time.Duration(m.misses) * m.every
	for {
		select {
		case <-m.stopCh:
			return
		case <-tick.C:
		}
		now := time.Now()
		var condemned []int
		m.mu.Lock()
		for machine, last := range m.lastSeen {
			if _, gone := m.dead[machine]; gone {
				continue
			}
			silence := now.Sub(last)
			if silence <= window {
				continue
			}
			// Overdue. Corroborate with the coordinator's link state; an
			// asymmetric partition (renewals lost, reverse link healthy)
			// gets partitionGraceWindows miss budgets before the verdict
			// fires on lease silence alone.
			if coordNode.PeerState(machine) == "connected" && silence <= partitionGraceWindows*window {
				continue
			}
			m.dead[machine] = 1
			condemned = append(condemned, machine)
		}
		m.mu.Unlock()
		for _, machine := range condemned {
			m.verdicts.Add(1)
			if m.onDead != nil {
				m.onDead(machine, 1)
			}
		}
	}
}

// stop tears the plane down: loops exit via stopCh, and unregistering the
// coordinator sink unblocks the receiver.
func (m *membership) stop() {
	m.stopOne.Do(func() {
		close(m.stopCh)
		m.grid.Unregister(m.coordinator, memberdCoordName)
	})
	m.wg.Wait()
}
