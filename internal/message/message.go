// Package message defines the message envelope that travels through
// XingTian's asynchronous communication channel: a lightweight header
// (what flows through header and ID queues) and a typed body (what lives in
// the shared-memory object store).
package message

import (
	"sync/atomic"
	"time"

	"xingtian/internal/objectstore"
	"xingtian/internal/rollout"
)

// Type tags the payload carried by a message.
type Type uint8

// Message types. The router treats them uniformly (it is algorithm
// agnostic); types exist so workhorse threads can dispatch received bodies.
const (
	TypeRollout Type = iota + 1
	TypeWeights
	TypeStats
	TypeControl
	TypeDummy
	// TypeWeightsDelta carries a sparse/quantized weight update against a
	// base version the destination already holds. It shares the privileged
	// class with TypeWeights: deltas chain, so losing one would wedge the
	// destination until a dense fallback.
	TypeWeightsDelta
)

// String returns a human-readable type name.
func (t Type) String() string {
	switch t {
	case TypeRollout:
		return "rollout"
	case TypeWeights:
		return "weights"
	case TypeStats:
		return "stats"
	case TypeControl:
		return "control"
	case TypeDummy:
		return "dummy"
	case TypeWeightsDelta:
		return "weights-delta"
	default:
		return "unknown"
	}
}

// WeightsClass reports whether messages of this type carry learner weights
// (dense snapshots or deltas) — the traffic the weight plane plans, the
// fabric's outage queue keeps latest-wins, and an on-policy explorer waits
// for.
// The switch is deliberately exhaustive with no default: adding a message
// type must force a decision here (xt-lint's typeswitch analyzer enforces it).
func (t Type) WeightsClass() bool {
	switch t {
	case TypeWeights, TypeWeightsDelta:
		return true
	case TypeRollout, TypeStats, TypeControl, TypeDummy:
		return false
	}
	return false // unknown wire value: not weights traffic
}

// Droppable reports whether messages of this type may be shed under
// backpressure. The channel recognizes two classes: continuously regenerated
// traffic — trajectories, dummy benchmark bodies, and periodic statistics —
// is droppable (off-policy corrections tolerate lost or stale trajectories,
// and the next telemetry snapshot supersedes a shed one), while weights and
// control messages are privileged and must always be delivered. Only the
// privileged class may hold store references past the budget's high
// watermark, so its volume must stay small — which is exactly why
// high-frequency telemetry is in the droppable class.
// Exhaustive by design, like WeightsClass: the shed paths in broker consult
// this, so a new type must be classified explicitly.
func (t Type) Droppable() bool {
	switch t {
	case TypeRollout, TypeDummy, TypeStats:
		return true
	case TypeWeights, TypeControl, TypeWeightsDelta:
		return false
	}
	return false // unknown wire value: fail safe, never shed
}

// Header is the metadata that travels through header queues and ID queues.
// It is intentionally small: queues carry headers, the object store carries
// bodies.
type Header struct {
	// ID is unique per process for the lifetime of the run.
	ID uint64
	// Type tags the body.
	Type Type
	// Src is the producing node ("explorer-3", "learner", ...).
	Src string
	// Dst lists destination nodes; weights broadcasts have several.
	Dst []string
	// ObjectID locates the serialized body in the object store once the
	// sender thread has inserted it; zero until then.
	ObjectID objectstore.ID
	// BodySize is the serialized (possibly compressed) body length.
	BodySize int
	// Compressed records whether the stored body is LZ4-compressed.
	Compressed bool
	// CreatedNanos is the production timestamp (for latency accounting).
	CreatedNanos int64
	// WeightsVersion annotates weights messages.
	WeightsVersion int64
	// BaseVersion annotates weights-delta messages with the version the
	// delta applies on top of.
	BaseVersion int64
	// Round annotates dummy-benchmark messages with their round index,
	// fragment heartbeat/weights traffic with the sending replica's
	// incarnation epoch (so a respawned replica's peers can discard a
	// retired incarnation's late messages), and membership verdict/takeover
	// records with the machine-death verdict epoch respectively the
	// re-placed fragment's new incarnation epoch.
	Round int32
}

// Message couples a header with its in-process body. Inside a process the
// body stays a typed Go value; it is serialized only when crossing the
// process boundary through the shared-memory communicator.
type Message struct {
	Header *Header
	Body   any
}

// Payload bodies -------------------------------------------------------------

// WeightsPayload carries flattened DNN parameters from the learner.
type WeightsPayload struct {
	Version int64
	Data    []float32
}

// WeightsDeltaPayload carries a sparse and optionally int8-quantized update
// from BaseVersion to Version. The destination must currently hold exactly
// the reconstructed weights of BaseVersion (the learner's planner tracks
// what it last sent each destination and keeps the same reconstruction,
// so both sides apply bit-identical float32 arithmetic).
//
// Layouts:
//   - sparse:    Indices[i] names the parameter changed by the i-th entry.
//   - dense:     Indices == nil and the entries cover all NumParams slots.
//   - quantized: Scale > 0 and Q holds int8 steps; delta[i] = Scale*Q[i].
//   - exact:     Scale == 0 and Values holds raw float32 deltas.
//   - empty:     no entries at all — a pure version bump for a broadcast
//     whose delta norm fell below the skip threshold. It still flows as a
//     privileged message: an on-policy explorer waits for the new version.
type WeightsDeltaPayload struct {
	Version     int64
	BaseVersion int64
	// NumParams is the full parameter-vector length, checked on apply.
	NumParams int32
	// Scale is the quantization step (maxAbs/127); 0 means unquantized.
	Scale float32
	// Indices are sorted parameter indices for sparse layout; nil = dense.
	Indices []uint32
	// Q holds quantized deltas when Scale > 0.
	Q []int8
	// Values holds exact float32 deltas when Scale == 0.
	Values []float32
}

// Entries returns the number of encoded delta entries.
func (d *WeightsDeltaPayload) Entries() int {
	if d.Scale > 0 {
		return len(d.Q)
	}
	return len(d.Values)
}

// StatsPayload carries periodic metrics from workhorse threads to the
// center controller.
type StatsPayload struct {
	Node           string
	Episodes       int64
	MeanReturn     float64
	StepsGenerated int64
	StepsConsumed  int64
	TrainIters     int64
	UnixNanos      int64
}

// ControlKind enumerates controller commands.
type ControlKind uint8

// Controller commands.
const (
	ControlShutdown ControlKind = iota + 1
	ControlStart
	ControlSetHyperparams
	// ControlWeightsResync is an explorer→learner NACK: a weights delta
	// failed to apply (stale base after a restart, corrupt payload), so the
	// learner must fall back to a dense snapshot for that explorer.
	ControlWeightsResync
	// ControlAckSnapshot carries a learn replica's rollout-carried
	// weights-version ledger, the version of the newest rollout it ingested
	// from each explorer, to the broadcast fragment, whose broker sees no
	// rollout traffic. The snapshot rides in ControlPayload.Acked.
	ControlAckSnapshot
	// ControlRolloutAck is a learner's (fused or replica) rollout ack to one
	// explorer: ControlPayload.Acked maps the explorer to the header ID of
	// the newest rollout the learner has taken off its receive buffer from
	// it. The ack releases every un-acked rollout up to that ID from the
	// explorer's window at that learner.
	ControlRolloutAck
	// ControlHeartbeat is a learn replica's liveness beat to the broadcast
	// fragment. Header.Src names the replica and Header.Round its
	// incarnation epoch.
	ControlHeartbeat
	// ControlQuarantine tells the explorers and the broadcast fragment to
	// retire the replica named in ControlPayload.Peer: explorers stop
	// dispatching to it (replaying their un-acked rollouts to survivors)
	// and the broadcaster drops it from aggregation.
	ControlQuarantine
	// ControlRejoin reverses a quarantine after a supervised respawn: the
	// replica named in ControlPayload.Peer rejoins dispatch and aggregation
	// (the broadcaster's fencing at the incarnation epoch carried in
	// Header.Round). The broadcaster answers with a dense aggregate echo
	// (the RestoreWeights resync path).
	ControlRejoin
	// ControlDrain is a teardown nudge addressed to a stopping replica or
	// explorer so a thread blocked on its port wakes, sees it was stopped,
	// and exits. Live incarnations ignore it.
	ControlDrain
	// ControlLeaseRenew is a machine's membership lease renewal, sent from
	// its memberd port to the session coordinator's lease sink. The renewing
	// machine's ID travels in ControlPayload.Machine; a coordinator that
	// misses enough consecutive renewals (corroborated by the fabric's
	// per-peer link state) declares the machine dead.
	ControlLeaseRenew
	// ControlMachineDead records an epoch-fenced machine-death verdict:
	// ControlPayload.Machine names the dead machine and Header.Round carries
	// the verdict epoch. The re-placement engine emits it to the controller
	// port as the audit record for a takeover wave.
	ControlMachineDead
	// ControlTakeover announces that the fragment named in
	// ControlPayload.Peer has been re-placed onto the machine in
	// ControlPayload.Machine at the new incarnation epoch in Header.Round.
	// Sent to the controller port for audit counting; explorer takeovers
	// are additionally sent to the broadcast fragment, which sends the
	// rebuilt explorer the committed model, dense.
	ControlTakeover
)

// ControlPayload carries a control command from a controller.
type ControlPayload struct {
	Kind ControlKind
	// Hyperparams is set for ControlSetHyperparams (PBT mutation).
	Hyperparams map[string]float64
	// Acked is keyed by explorer name. For ControlAckSnapshot it holds the
	// weights version of the newest rollout ingested from each explorer;
	// for ControlRolloutAck, the header ID of the newest rollout taken from
	// the one explorer it is addressed to.
	Acked map[string]int64
	// Peer names the learn replica a ControlQuarantine/ControlRejoin
	// concerns, and the fragment a ControlTakeover re-placed.
	Peer string
	// Machine is set for membership traffic: the renewing machine for
	// ControlLeaseRenew, the dead machine for ControlMachineDead, and the
	// fragment's new home for ControlTakeover.
	Machine int
}

// DummyPayload is the opaque byte body used by the §5.1 data-transmission
// benchmark.
type DummyPayload struct {
	Data []byte
}

// RolloutBody aliases the rollout batch for readability at use sites.
type RolloutBody = rollout.Batch

var nextID atomic.Uint64

// New creates a message with a fresh ID and the current timestamp.
func New(t Type, src string, dst []string, body any) *Message {
	return &Message{
		Header: &Header{
			ID:           nextID.Add(1),
			Type:         t,
			Src:          src,
			Dst:          dst,
			CreatedNanos: time.Now().UnixNano(),
		},
		Body: body,
	}
}
