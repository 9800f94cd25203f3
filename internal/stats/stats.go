// Package stats provides the measurement utilities behind the paper's
// evaluation figures: latency histograms and CDFs (Fig. 8(c)) and
// time-bucketed series (the throughput timelines of Figs. 8–10).
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Histogram collects duration samples for percentile and CDF reporting.
// An unbounded histogram (NewHistogram) keeps every sample; a bounded one
// (NewBoundedHistogram) keeps a uniform reservoir, so it can sit on an
// always-on hot path (e.g. the broker's send→recv latency tracking) without
// growing with traffic. Count and Mean are exact in both modes; percentiles
// and CDFs are computed over the reservoir.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	max     int   // 0 = unbounded
	count   int64 // total observations (exact)
	sum     time.Duration
	rng     uint64 // xorshift state for reservoir replacement
}

// NewHistogram returns an empty histogram that keeps every sample.
func NewHistogram() *Histogram { return &Histogram{} }

// NewBoundedHistogram returns a histogram that retains at most max samples
// via reservoir sampling (max < 1 falls back to 1024).
func NewBoundedHistogram(max int) *Histogram {
	if max < 1 {
		max = 1024
	}
	return &Histogram{max: max, rng: 0x9e3779b97f4a7c15}
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += d
	if h.max == 0 || len(h.samples) < h.max {
		h.samples = append(h.samples, d)
		return
	}
	// Algorithm R: keep each observation with probability max/count.
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	if idx := h.rng % uint64(h.count); idx < uint64(h.max) {
		h.samples[idx] = d
	}
}

// Count returns the number of observations (not the retained sample size).
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.count)
}

// Mean returns the arithmetic mean of all observations (0 when empty).
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest-rank.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), h.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// CDF returns (value, cumulative fraction) points for plotting.
func (h *Histogram) CDF() []CDFPoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return nil
	}
	sorted := append([]time.Duration(nil), h.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]CDFPoint, len(sorted))
	for i, s := range sorted {
		out[i] = CDFPoint{Value: s, Fraction: float64(i+1) / float64(len(sorted))}
	}
	return out
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    time.Duration
	Fraction float64
}

// Series buckets event counts into fixed wall-time windows, producing the
// throughput-over-time curves of Figs. 8(a), 9(a), and 10(a).
type Series struct {
	mu      sync.Mutex
	start   time.Time
	bucket  time.Duration
	counts  []float64
	started bool
}

// NewSeries returns a series with the given bucket width.
func NewSeries(bucket time.Duration) *Series {
	if bucket <= 0 {
		bucket = time.Second
	}
	return &Series{bucket: bucket}
}

// Add records value at the current time.
func (s *Series) Add(value float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		s.start = time.Now()
		s.started = true
	}
	idx := int(time.Since(s.start) / s.bucket)
	for len(s.counts) <= idx {
		s.counts = append(s.counts, 0)
	}
	s.counts[idx] += value
}

// PerSecond returns the bucketed series normalized to events per second.
func (s *Series) PerSecond() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.counts))
	sec := s.bucket.Seconds()
	for i, c := range s.counts {
		out[i] = c / sec
	}
	return out
}

// Mean returns the average per-second rate across all complete buckets.
// The bucket currently being filled is excluded — averaging it as if the
// full bucket width had elapsed would understate the rate — unless it is
// the only bucket, in which case it is used as a best-effort estimate.
func (s *Series) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started || len(s.counts) == 0 {
		return 0
	}
	// Buckets strictly before the current wall-time bucket are complete.
	complete := int(time.Since(s.start) / s.bucket)
	n := len(s.counts)
	if complete < n {
		n = complete
	}
	if n <= 0 {
		n = len(s.counts) // only the open bucket exists: fall back to it
	}
	var sum float64
	for _, c := range s.counts[:n] {
		sum += c
	}
	return sum / s.bucket.Seconds() / float64(n)
}

// FormatBytes renders a byte count human-readably for experiment output.
func FormatBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}
