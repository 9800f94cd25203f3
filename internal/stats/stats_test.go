package stats

import (
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramMeanPercentile(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if mean := h.Mean(); mean != 50500*time.Microsecond {
		t.Fatalf("Mean = %v, want 50.5ms", mean)
	}
	if p50 := h.Percentile(50); p50 != 50*time.Millisecond {
		t.Fatalf("P50 = %v, want 50ms", p50)
	}
	if p100 := h.Percentile(100); p100 != 100*time.Millisecond {
		t.Fatalf("P100 = %v", p100)
	}
	if p0 := h.Percentile(0); p0 != 1*time.Millisecond {
		t.Fatalf("P0 = %v", p0)
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{5, 1, 3, 2, 4} {
		h.Observe(d * time.Millisecond)
	}
	cdf := h.CDF()
	if len(cdf) != 5 {
		t.Fatalf("CDF has %d points", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value || cdf[i].Fraction <= cdf[i-1].Fraction {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
	if cdf[len(cdf)-1].Fraction != 1 {
		t.Fatalf("CDF does not end at 1: %v", cdf[len(cdf)-1].Fraction)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.CDF() != nil {
		t.Fatal("empty histogram should return zero values")
	}
}

func TestSeriesBuckets(t *testing.T) {
	s := NewSeries(20 * time.Millisecond)
	s.Add(5)
	time.Sleep(25 * time.Millisecond)
	s.Add(3)
	rates := s.PerSecond()
	if len(rates) < 2 {
		t.Fatalf("series has %d buckets, want >= 2", len(rates))
	}
	if rates[0] != 5/0.02 {
		t.Fatalf("bucket0 rate = %v, want 250", rates[0])
	}
	if s.Mean() <= 0 {
		t.Fatalf("Mean = %v", s.Mean())
	}
}

func TestSeriesDefaults(t *testing.T) {
	s := NewSeries(0)
	if s.bucket != time.Second {
		t.Fatalf("default bucket = %v", s.bucket)
	}
	if s.Mean() != 0 {
		t.Fatal("empty series Mean != 0")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[float64]string{
		512:             "512 B",
		2048:            "2.00 KB",
		3 << 20:         "3.00 MB",
		1.5 * (1 << 30): "1.50 GB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Fatalf("FormatBytes(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestPropertyPercentileWithinRange: any percentile of any sample set is
// between min and max.
func TestPropertyPercentileWithinRange(t *testing.T) {
	f := func(raw []uint16, p uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		min, max := time.Duration(raw[0]), time.Duration(raw[0])
		for _, r := range raw {
			d := time.Duration(r)
			h.Observe(d)
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		got := h.Percentile(float64(p % 101))
		return got >= min && got <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSeriesMeanExcludesOpenBucket: the bucket still being filled must not
// drag the mean down as if its full width had elapsed.
func TestSeriesMeanExcludesOpenBucket(t *testing.T) {
	s := NewSeries(time.Second)
	s.mu.Lock()
	s.started = true
	// 2.5 bucket-widths elapsed: buckets 0 and 1 complete, bucket 2 open.
	s.start = time.Now().Add(-2500 * time.Millisecond)
	s.counts = []float64{10, 20, 5}
	s.mu.Unlock()
	got := s.Mean()
	want := (10.0 + 20.0) / 2
	if got < want-0.01 || got > want+0.01 {
		t.Fatalf("Mean = %v, want %v (open bucket excluded)", got, want)
	}
}

func TestSeriesMeanFallsBackToOnlyBucket(t *testing.T) {
	s := NewSeries(time.Hour)
	s.Add(3600) // the single, still-open bucket
	got := s.Mean()
	want := 3600.0 / 3600.0
	if got < want-0.01 || got > want+0.01 {
		t.Fatalf("Mean = %v, want %v (single open bucket fallback)", got, want)
	}
}

func TestSeriesMeanEmpty(t *testing.T) {
	if got := NewSeries(time.Second).Mean(); got != 0 {
		t.Fatalf("Mean on empty series = %v, want 0", got)
	}
}

// TestBoundedHistogram: the reservoir caps retained samples while Count and
// Mean stay exact and percentiles stay within the observed range.
func TestBoundedHistogram(t *testing.T) {
	h := NewBoundedHistogram(64)
	const n = 10_000
	var sum time.Duration
	for i := 1; i <= n; i++ {
		d := time.Duration(i) * time.Microsecond
		h.Observe(d)
		sum += d
	}
	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	if got, want := h.Mean(), sum/n; got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	h.mu.Lock()
	retained := len(h.samples)
	h.mu.Unlock()
	if retained > 64 {
		t.Fatalf("retained %d samples, want <= 64", retained)
	}
	p50 := h.Percentile(50)
	if p50 < time.Microsecond || p50 > n*time.Microsecond {
		t.Fatalf("P50 = %v outside observed range", p50)
	}
}
