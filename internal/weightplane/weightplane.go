// Package weightplane plans the learner's weight broadcasts for the
// communication-efficient weight plane: sparse/quantized deltas against the
// version each destination already holds, an adaptive skip threshold that
// turns negligible updates into pure version bumps, and dense-snapshot
// fallback whenever a destination's state is unknown, stale, or NACKed.
//
// Drift control: the planner maintains one canonical reconstruction chain —
// recon_v = recon_prev + quantize(cur_v − recon_prev) — and aims every
// message at the canonical vector. Destinations on the previous broadcast
// version share the quantized chain delta; stragglers on older versions get
// an exact (unquantized) delta to the same canonical target; dense sends
// carry the canonical vector itself. Every destination therefore lands on
// bit-identical float32 weights, so chained deltas never diverge, and the
// quantization error never accumulates (each step quantizes the distance to
// the *true* current weights, absorbing the previous step's error).
package weightplane

import (
	"slices"
	"sync"

	"xingtian/internal/message"
	"xingtian/internal/serialize"
)

// Config tunes the planner. The zero value disables the delta plane
// entirely (every broadcast is a dense star send).
type Config struct {
	// Enabled turns on delta planning. Every core session plans with it
	// on; it stays a field because benchmark/downlink.go builds its
	// planner from this Config.
	Enabled bool
	// QuantBits selects delta quantization: 8 for int8 steps, 0 for exact
	// float32 deltas. Every core session plans int8 steps; it stays a
	// field because benchmark/downlink.go builds its planner from this
	// Config.
	QuantBits int
	// SkipFactor scales the adaptive skip threshold: a broadcast whose
	// relative delta norm falls below SkipFactor × EMA(recent norms) is
	// replaced by an empty version bump. 0 disables skipping.
	SkipFactor float64
	// StaleGap forces a dense snapshot when a destination's last-acked
	// version trails the current one by more than this many versions.
	// 0 means DefaultStaleGap.
	StaleGap int64
}

// DefaultStaleGap is the acked-version gap that forces dense fallback.
const DefaultStaleGap = 64

// emaAlpha is the smoothing factor of the adaptive-threshold EMA.
const emaAlpha = 0.1

// Outbound is one planned weight message covering a group of destinations
// that share a base version.
type Outbound struct {
	Type message.Type
	Body any
	// BaseVersion annotates delta messages (mirrored into the header).
	BaseVersion int64
	Dsts        []string
}

// Stats counts planner decisions.
type Stats struct {
	// Dense counts destinations sent a full snapshot.
	Dense int64
	// Delta counts destinations sent a non-empty delta.
	Delta int64
	// Empty counts destinations sent a pure version bump (skipped update).
	Empty int64
	// Resyncs counts NACK-forced dense fallbacks.
	Resyncs int64
	// Corrections counts failover-forced broadcasts: a learn replica was
	// quarantined, so the committed aggregate was recomputed over the
	// survivors and re-planned out of cadence.
	Corrections int64
}

// ringEntry is one canonical reconstruction a destination may still hold.
// A skipped version's entry shares its predecessor's vec.
type ringEntry struct {
	version int64
	vec     []float32
	live    bool // prune's mark
}

// Planner plans weight broadcasts. Safe for concurrent use.
//
// Ring vectors are planner-private: no Outbound body aliases one (a dense
// body is a copy, a delta body owns its entries), so a vector prune drops —
// and no surviving entry shares — becomes the next version's reconstruction
// buffer instead of garbage, and the newest vector becomes the next
// version's in place when no destination outside that plan can hold it.
type Planner struct {
	cfg Config

	mu        sync.Mutex
	ring      []ringEntry      // canonical reconstructions still needed
	spare     []float32        // one dropped ring vector, reused by the next version
	lastSent  map[string]int64 // per-destination version last planned
	prevAcked map[string]int64 // per-destination high-water acked version
	stale     map[string]bool  // NACKed or restart-suspected destinations
	lastVer   int64            // version of the newest ring entry
	emaNorm   float64
	stats     Stats
}

// New returns a planner for cfg.
func New(cfg Config) *Planner {
	if cfg.StaleGap <= 0 {
		cfg.StaleGap = DefaultStaleGap
	}
	return &Planner{
		cfg:       cfg,
		lastSent:  make(map[string]int64),
		prevAcked: make(map[string]int64),
		stale:     make(map[string]bool),
	}
}

// Enabled reports whether delta planning is on.
func (p *Planner) Enabled() bool { return p.cfg.Enabled }

// MarkStale records an explorer NACK (ControlWeightsResync): its next
// broadcast will be a dense snapshot.
func (p *Planner) MarkStale(dst string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stale[dst] = true
	p.stats.Resyncs++
}

// NoteCorrection records a failover-forced corrective broadcast (the
// aggregate recomputed over surviving replicas after a quarantine).
func (p *Planner) NoteCorrection() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Corrections++
}

// Stats returns a snapshot of planner counters.
func (p *Planner) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Plan maps a broadcast of cur@version to dsts into grouped messages.
// acked carries the last weights version observed on each destination's
// rollouts (may be nil). The returned groups cover every destination
// exactly once: the dense group first, then one group per delta base in
// ascending base version. Plan keeps no reference to cur, and the returned
// bodies are the caller's: the planner never writes to them again.
func (p *Planner) Plan(cur []float32, version int64, dsts []string, acked map[string]int64) []Outbound {
	if len(dsts) == 0 {
		return nil
	}
	if !p.cfg.Enabled {
		p.mu.Lock()
		p.stats.Dense += int64(len(dsts))
		p.mu.Unlock()
		return []Outbound{{
			Type: message.TypeWeights,
			Body: &message.WeightsPayload{Version: version, Data: append([]float32(nil), cur...)},
			Dsts: dsts,
		}}
	}

	p.mu.Lock()
	defer p.mu.Unlock()

	// Restart detection: an acked version moving backwards means the
	// destination was rebuilt and lost its mirror.
	for d, v := range acked {
		if prev, ok := p.prevAcked[d]; ok && v < prev {
			p.stale[d] = true
		}
		if v > p.prevAcked[d] {
			p.prevAcked[d] = v
		}
	}

	recon, chainDelta := p.advanceChain(cur, version, dsts)
	// onChain is a base the chain delta applies to. Its ring entry may be
	// retired already (advanced in place): its destinations need only the
	// delta.
	onChain := func(base int64) bool { return chainDelta != nil && base == chainDelta.BaseVersion }

	var denseDsts []string
	deltaByBase := make(map[int64][]string)
	for _, d := range dsts {
		base, sentBefore := p.lastSent[d]
		_, haveBase := p.lookup(base)
		haveBase = haveBase || onChain(base)
		ackedV, haveAck := acked[d]
		switch {
		case p.stale[d] || !sentBefore || !haveBase:
			denseDsts = append(denseDsts, d)
		case haveAck && version-ackedV > p.cfg.StaleGap:
			denseDsts = append(denseDsts, d)
		default:
			deltaByBase[base] = append(deltaByBase[base], d)
		}
	}

	var out []Outbound
	if len(denseDsts) > 0 {
		out = append(out, Outbound{
			Type: message.TypeWeights,
			Body: &message.WeightsPayload{Version: version, Data: append([]float32(nil), recon...)},
			Dsts: denseDsts,
		})
		p.stats.Dense += int64(len(denseDsts))
		for _, d := range denseDsts {
			delete(p.stale, d)
		}
	}
	bases := make([]int64, 0, len(deltaByBase))
	for base := range deltaByBase {
		bases = append(bases, base)
	}
	slices.Sort(bases)
	for _, base := range bases {
		group := deltaByBase[base]
		var body *message.WeightsDeltaPayload
		switch {
		case onChain(base):
			body = chainDelta
		case base == version:
			// Warm-up re-broadcast of the current version: pure bump.
			body = &message.WeightsDeltaPayload{Version: version, BaseVersion: base, NumParams: int32(len(recon))}
		default:
			// Straggler base: exact delta onto the canonical target.
			baseVec, _ := p.lookup(base)
			exact, err := serialize.EncodeDelta(baseVec, recon, base, version, serialize.QuantNone)
			if err != nil {
				// Shape changed under us — dense is always safe.
				out = append(out, Outbound{
					Type: message.TypeWeights,
					Body: &message.WeightsPayload{Version: version, Data: append([]float32(nil), recon...)},
					Dsts: group,
				})
				p.stats.Dense += int64(len(group))
				continue
			}
			body = exact
		}
		if body.Entries() == 0 {
			p.stats.Empty += int64(len(group))
		} else {
			p.stats.Delta += int64(len(group))
		}
		out = append(out, Outbound{
			Type:        message.TypeWeightsDelta,
			Body:        body,
			BaseVersion: body.BaseVersion,
			Dsts:        group,
		})
	}

	for _, d := range dsts {
		p.lastSent[d] = version
	}
	p.prune(version)
	return out
}

// advanceChain extends the canonical reconstruction chain to version and
// returns the canonical vector and the chain delta from the previous
// broadcast version (nil when this is the first broadcast or shapes
// changed). An update the adaptive threshold skips is an empty chain delta.
// When no destination outside dsts can still need the previous vector, it
// becomes version's in place and its old entry is retired.
func (p *Planner) advanceChain(cur []float32, version int64, dsts []string) (recon []float32, chainDelta *message.WeightsDeltaPayload) {
	if r, ok := p.lookup(version); ok && p.lastVer == version {
		// Re-broadcast of an already-planned version (learner warm-up).
		return r, nil
	}
	prev, havePrev := p.lookup(p.lastVer)
	if !havePrev || len(prev) != len(cur) {
		recon = p.vector(len(cur))
		copy(recon, cur)
		p.store(version, recon)
		p.lastVer = version
		return recon, nil
	}

	if p.cfg.SkipFactor > 0 {
		relNorm := serialize.RelDeltaNorm(prev, cur)
		if p.emaNorm > 0 && relNorm < p.cfg.SkipFactor*p.emaNorm {
			// Below threshold: canonical weights stay put, version advances.
			p.store(version, prev)
			chainDelta = &message.WeightsDeltaPayload{
				Version: version, BaseVersion: p.lastVer, NumParams: int32(len(cur)),
			}
			p.lastVer = version
			return prev, chainDelta
		}
		if relNorm > 0 {
			if p.emaNorm == 0 {
				p.emaNorm = relNorm
			} else {
				p.emaNorm = (1-emaAlpha)*p.emaNorm + emaAlpha*relNorm
			}
		}
	}

	inPlace := p.soleHolder(prev, dsts)
	recon = prev
	if !inPlace {
		recon = p.vector(len(cur))
	}
	d, err := serialize.EncodeDeltaInto(prev, cur, recon, p.lastVer, version, p.cfg.QuantBits)
	switch {
	case err != nil: // EncodeDeltaInto wrote nothing: prev is intact
		if inPlace {
			recon = p.vector(len(cur))
		}
		copy(recon, cur)
	case inPlace:
		p.ring = slices.DeleteFunc(p.ring, func(e ringEntry) bool { return e.version == p.lastVer })
	}
	p.store(version, recon)
	p.lastVer = version
	return recon, d
}

// soleHolder reports whether the plan for dsts moves past prev, lastVer's
// vector, every destination that may hold it: each one last sent lastVer is
// in dsts, and no other ring entry (a skipped version's) shares prev.
func (p *Planner) soleHolder(prev []float32, dsts []string) bool {
	if len(prev) == 0 {
		return false
	}
	for d, sent := range p.lastSent {
		if sent == p.lastVer && !slices.Contains(dsts, d) {
			return false
		}
	}
	for _, e := range p.ring {
		if e.version != p.lastVer && len(e.vec) > 0 && &e.vec[0] == &prev[0] {
			return false
		}
	}
	return true
}

// lookup returns the ring's reconstruction for version.
func (p *Planner) lookup(version int64) ([]float32, bool) {
	for _, e := range p.ring {
		if e.version == version {
			return e.vec, true
		}
	}
	return nil, false
}

// store files vec as version's reconstruction.
func (p *Planner) store(version int64, vec []float32) {
	for i := range p.ring {
		if p.ring[i].version == version {
			p.ring[i].vec = vec
			return
		}
	}
	p.ring = append(p.ring, ringEntry{version: version, vec: vec})
}

// vector returns an n-parameter buffer for a new reconstruction: the spare
// when it is large enough, a fresh one otherwise.
func (p *Planner) vector(n int) []float32 {
	if cap(p.spare) >= n {
		v := p.spare[:n]
		p.spare = nil
		return v
	}
	return make([]float32, n)
}

// prune drops ring entries no destination can still need. One dropped
// vector that no surviving entry shares is kept as the spare.
func (p *Planner) prune(version int64) {
	for i := range p.ring {
		p.ring[i].live = p.needed(p.ring[i].version, version)
	}
	for _, e := range p.ring {
		if !e.live && p.spare == nil && !p.liveShares(e.vec) {
			p.spare = e.vec
		}
	}
	kept := p.ring[:0]
	for _, e := range p.ring {
		if e.live {
			kept = append(kept, e)
		}
	}
	clear(p.ring[len(kept):])
	p.ring = kept
}

// needed reports whether a destination may still hold v, or v is the
// version being broadcast.
func (p *Planner) needed(v, version int64) bool {
	if v == version || v == p.lastVer {
		return true
	}
	for _, sent := range p.lastSent {
		if sent == v {
			return true
		}
	}
	return false
}

// liveShares reports whether a live ring entry uses vec's backing array.
func (p *Planner) liveShares(vec []float32) bool {
	if len(vec) == 0 {
		return true // nothing worth recycling
	}
	for _, e := range p.ring {
		if e.live && len(e.vec) > 0 && &e.vec[0] == &vec[0] {
			return true
		}
	}
	return false
}
