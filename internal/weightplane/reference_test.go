package weightplane

import (
	"sync"

	"xingtian/internal/message"
	"xingtian/internal/serialize"
)

// refPlanner is the planner as it was before its ring was recycled: a map
// ring holding a freshly allocated reconstruction per version, the relative
// norm and its EMA computed on every broadcast, and the chain step as
// EncodeDelta followed by ApplyDelta. TestPlannerRecyclingMatchesReference
// holds Planner to its decisions and bodies.
type refPlanner struct {
	cfg Config

	mu        sync.Mutex
	ring      map[int64][]float32 // canonical reconstructions by version
	lastSent  map[string]int64    // per-destination version last planned
	prevAcked map[string]int64    // per-destination high-water acked version
	stale     map[string]bool     // NACKed or restart-suspected destinations
	lastVer   int64               // version of the newest ring entry
	prevChain int64               // base version the newest chain delta applies to
	emaNorm   float64
	stats     Stats
}

func newRefPlanner(cfg Config) *refPlanner {
	if cfg.StaleGap <= 0 {
		cfg.StaleGap = DefaultStaleGap
	}
	return &refPlanner{
		cfg:       cfg,
		ring:      make(map[int64][]float32),
		lastSent:  make(map[string]int64),
		prevAcked: make(map[string]int64),
		stale:     make(map[string]bool),
	}
}

// MarkStale records an explorer NACK (ControlWeightsResync): its next
// broadcast will be a dense snapshot.
func (p *refPlanner) MarkStale(dst string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stale[dst] = true
	p.stats.Resyncs++
}

// Plan maps a broadcast of cur@version to dsts into grouped messages.
// acked carries the last weights version observed on each destination's
// rollouts (may be nil). The returned groups cover every destination
// exactly once.
func (p *refPlanner) Plan(cur []float32, version int64, dsts []string, acked map[string]int64) []Outbound {
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

	recon, chainDelta, _ := p.advanceChain(cur, version)

	var denseDsts []string
	deltaByBase := make(map[int64][]string)
	for _, d := range dsts {
		base, sentBefore := p.lastSent[d]
		_, haveBase := p.ring[base]
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
	for base, group := range deltaByBase {
		var body *message.WeightsDeltaPayload
		switch {
		case base == p.prevChainBase(version) && chainDelta != nil:
			body = chainDelta
		case base == version:
			// Warm-up re-broadcast of the current version: pure bump.
			body = &message.WeightsDeltaPayload{Version: version, BaseVersion: base, NumParams: int32(len(recon))}
		default:
			// Straggler base: exact delta onto the canonical target.
			exact, err := serialize.EncodeDelta(p.ring[base], recon, base, version, serialize.QuantNone)
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
// returns the canonical vector, the chain delta from the previous broadcast
// version (nil when this is the first broadcast or shapes changed), and
// whether the adaptive threshold skipped the update.
func (p *refPlanner) advanceChain(cur []float32, version int64) (recon []float32, chainDelta *message.WeightsDeltaPayload, skipped bool) {
	if r, ok := p.ring[version]; ok && p.lastVer == version {
		// Re-broadcast of an already-planned version (learner warm-up).
		return r, nil, false
	}
	prev, havePrev := p.ring[p.lastVer]
	if !havePrev || len(prev) != len(cur) {
		recon = append([]float32(nil), cur...)
		p.ring[version] = recon
		p.lastVer = version
		return recon, nil, false
	}

	relNorm := serialize.RelDeltaNorm(prev, cur)
	if p.cfg.SkipFactor > 0 && p.emaNorm > 0 && relNorm < p.cfg.SkipFactor*p.emaNorm {
		// Below threshold: canonical weights stay put, version advances.
		recon = prev
		p.ring[version] = recon
		chainDelta = &message.WeightsDeltaPayload{
			Version: version, BaseVersion: p.lastVer, NumParams: int32(len(cur)),
		}
		p.prevChain = p.lastVer
		p.lastVer = version
		return recon, chainDelta, true
	}
	if relNorm > 0 {
		if p.emaNorm == 0 {
			p.emaNorm = relNorm
		} else {
			p.emaNorm = (1-emaAlpha)*p.emaNorm + emaAlpha*relNorm
		}
	}

	d, err := serialize.EncodeDelta(prev, cur, p.lastVer, version, p.cfg.QuantBits)
	if err != nil {
		recon = append([]float32(nil), cur...)
		p.ring[version] = recon
		p.prevChain = p.lastVer
		p.lastVer = version
		return recon, nil, false
	}
	// ApplyDelta advances its argument in place; prev stays in the ring.
	recon, err = serialize.ApplyDelta(append([]float32(nil), prev...), d)
	if err != nil {
		recon = append([]float32(nil), cur...)
		d = nil
	}
	p.ring[version] = recon
	p.prevChain = p.lastVer
	p.lastVer = version
	return recon, d, false
}

// prevChainBase returns the base version the chain delta for version was
// encoded against.
func (p *refPlanner) prevChainBase(version int64) int64 {
	if p.lastVer == version {
		return p.prevChain
	}
	return -1
}

// prune drops ring entries no destination can still need.
func (p *refPlanner) prune(version int64) {
	needed := map[int64]bool{version: true, p.lastVer: true}
	for _, v := range p.lastSent {
		needed[v] = true
	}
	for v := range p.ring {
		if !needed[v] {
			delete(p.ring, v)
		}
	}
}
