package fabric

import (
	"fmt"
	"net"
	"sync"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/serialize"
)

// GridOptions tunes a Grid before its mesh is dialed.
type GridOptions struct {
	// Compressor is handed to every broker (nil disables compression).
	Compressor serialize.Compressor
	// ConnWrapper is installed on every node before the mesh connects —
	// the fault-injection seam (faultinject.Injector.WrapConn).
	ConnWrapper func(net.Conn) net.Conn
	// ConnWrapperFor, when set, supplies a per-machine conn wrapper and
	// takes precedence over ConnWrapper — the seam direction-aware faults
	// (faultinject.Injector.WrapConnFor) use to tag each side of a link so
	// an asymmetric A→B partition can match only frames flowing A→B.
	ConnWrapperFor func(machine int) func(net.Conn) net.Conn
	// RedialAttempts / RedialBackoff override every node's redial policy
	// (zero keeps the defaults).
	RedialAttempts int
	RedialBackoff  time.Duration
	// StoreBudget bounds every machine's object store (bytes; zero means
	// unbounded). ShedQueueDepth caps destination queues by shedding the
	// oldest droppable messages. Both follow broker.Config semantics.
	StoreBudget    int64
	ShedQueueDepth int
}

// Grid is a real-TCP deployment of N machines on loopback: one fabric Node
// plus one broker per machine, fully meshed. It serves the same transport
// surface as broker.Cluster (Register/Unregister/Broker/Health/Stop), so a
// core.Session can run over real sockets instead of netsim — the substrate
// the chaos tests kill links under.
type Grid struct {
	nodes   []*Node
	brokers []*broker.Broker

	mu        sync.Mutex
	locations map[string]int
	killed    map[int]bool
	member    *membership
	stopped   bool
}

var _ broker.Locator = (*Grid)(nil)

// NewGrid builds and meshes an n-machine loopback deployment. Machines are
// numbered 0..n-1.
func NewGrid(n int, opts GridOptions) (*Grid, error) {
	if n < 1 {
		return nil, fmt.Errorf("fabric: grid needs at least 1 machine, got %d", n)
	}
	g := &Grid{locations: make(map[string]int), killed: make(map[int]bool)}
	fail := func(err error) (*Grid, error) {
		g.Stop()
		return nil, err
	}
	for i := 0; i < n; i++ {
		node, err := Listen(i, "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("fabric grid: %w", err))
		}
		if opts.ConnWrapperFor != nil {
			node.SetConnWrapper(opts.ConnWrapperFor(i))
		} else if opts.ConnWrapper != nil {
			node.SetConnWrapper(opts.ConnWrapper)
		}
		node.SetRedialPolicy(opts.RedialAttempts, opts.RedialBackoff)
		b := broker.New(broker.Config{
			MachineID:      i,
			Compressor:     opts.Compressor,
			Remote:         node,
			Locator:        g,
			StoreBudget:    opts.StoreBudget,
			ShedQueueDepth: opts.ShedQueueDepth,
		})
		node.AttachBroker(b)
		g.nodes = append(g.nodes, node)
		g.brokers = append(g.brokers, b)
	}
	for i, src := range g.nodes {
		for j, dst := range g.nodes {
			if i == j {
				continue
			}
			if err := src.Connect(j, dst.Addr()); err != nil {
				return fail(fmt.Errorf("fabric grid mesh %d→%d: %w", i, j, err))
			}
		}
	}
	return g, nil
}

// Machines reports the grid size.
func (g *Grid) Machines() int { return len(g.nodes) }

// Node exposes a machine's fabric endpoint (for tests that kill links).
func (g *Grid) Node(machineID int) *Node {
	if machineID < 0 || machineID >= len(g.nodes) {
		return nil
	}
	return g.nodes[machineID]
}

// Broker returns the broker serving a machine, or nil.
func (g *Grid) Broker(machineID int) *broker.Broker {
	if machineID < 0 || machineID >= len(g.brokers) {
		return nil
	}
	return g.brokers[machineID]
}

// Register attaches a named client to a machine's broker and records its
// location for cross-machine routing.
func (g *Grid) Register(machineID int, name string) (*broker.Port, error) {
	if machineID < 0 || machineID >= len(g.brokers) {
		return nil, fmt.Errorf("fabric grid: no machine %d", machineID)
	}
	g.mu.Lock()
	if prev, dup := g.locations[name]; dup {
		g.mu.Unlock()
		return nil, fmt.Errorf("fabric grid: client %q already registered on machine %d", name, prev)
	}
	g.locations[name] = machineID
	g.mu.Unlock()
	port, err := g.brokers[machineID].Register(name)
	if err != nil {
		g.mu.Lock()
		delete(g.locations, name)
		g.mu.Unlock()
		return nil, err
	}
	return port, nil
}

// Unregister detaches a named client so its name can be registered again
// (explorer supervision re-creates crashed explorers under their original
// names). No-op for unknown names.
func (g *Grid) Unregister(machineID int, name string) {
	if machineID < 0 || machineID >= len(g.brokers) {
		return
	}
	g.mu.Lock()
	if m, ok := g.locations[name]; ok && m == machineID {
		delete(g.locations, name)
	}
	g.mu.Unlock()
	g.brokers[machineID].Unregister(name)
}

// Locate implements broker.Locator.
func (g *Grid) Locate(name string) (int, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.locations[name]
	return m, ok
}

// Health snapshots every broker's channel health plus every node's wire
// counters.
func (g *Grid) Health() broker.ClusterHealth {
	var h broker.ClusterHealth
	for _, b := range g.brokers {
		h.Brokers = append(h.Brokers, b.Metrics())
	}
	for i, n := range g.nodes {
		h.Wire = append(h.Wire, n.Metrics().Wire(i))
	}
	return h
}

// Kill severs every connection of one machine and stops its broker — the
// whole-machine death primitive used by fault injection and by the core
// re-placement engine to fence a condemned machine out of the session (a
// partitioned-but-alive incarnation physically cannot drive its old
// fragments once its broker and links are gone). Idempotent. Kill renders
// no verdict itself: the coordinator's membership plane (when running)
// observes the missed leases and the downed link and declares MachineDead.
func (g *Grid) Kill(machineID int) {
	if machineID < 0 || machineID >= len(g.nodes) {
		return
	}
	g.mu.Lock()
	if g.killed[machineID] || g.stopped {
		g.mu.Unlock()
		return
	}
	g.killed[machineID] = true
	g.mu.Unlock()
	g.brokers[machineID].Stop()
	g.nodes[machineID].Stop()
}

// Stop shuts down the membership plane, then brokers (draining forwarders
// onto still-open links), then the fabric nodes. Idempotent.
func (g *Grid) Stop() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.stopped = true
	member := g.member
	g.mu.Unlock()
	if member != nil {
		member.stop()
	}
	for _, b := range g.brokers {
		b.Stop()
	}
	for _, n := range g.nodes {
		n.Stop()
	}
}
