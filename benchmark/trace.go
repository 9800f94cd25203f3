package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The tracer records spans from the benchmark's own files, around the calls
// the harness makes into each layer. Spans stay in memory while a run is
// measured and are written out when it ends. A nil *tracer (the untraced
// pass) makes every recording call a no-op, so the two passes run the same
// code and their throughput difference is the tracing overhead.

// span is one timed interval. Spans of one message or round share Trace;
// Parent names the span of the same trace that caused this one ("" for the
// root).
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Start  int64  `json:"start_ns"` // since the process-wide epoch
	End    int64  `json:"end_ns"`
}

type tracer struct {
	mu   sync.Mutex
	bufs []*spanBuf
}

// spanBuf is one goroutine's private span list, so recording takes no lock.
type spanBuf struct {
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// buffer hands a goroutine its own span list. Safe on a nil tracer.
func (t *tracer) buffer() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{spans: make([]span, 0, 1<<14)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// add records a finished span. Safe on a nil buffer.
func (b *spanBuf) add(name, parent string, trace uint64, start, end time.Time) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{
		Name: name, Parent: parent, Trace: trace,
		Start: start.Sub(epoch).Nanoseconds(), End: end.Sub(epoch).Nanoseconds(),
	})
}

// all returns every recorded span ordered by trace, then start. Call only
// after the recording goroutines have stopped.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Trace != out[j].Trace {
			return out[i].Trace < out[j].Trace
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// spanStat aggregates one span name over a run.
type spanStat struct {
	Count     int
	MeanUS    float64 // mean duration
	SelfUS    float64 // mean self time: duration minus what child spans cover
	totalNS   int64
	selfTotal int64
}

// selfTimes computes per-name duration and self-time means. A span's self
// time is its duration minus the part of its interval covered by the spans
// of the same trace that name it as parent. spans must be ordered as all()
// returns them.
func selfTimes(spans []span) map[string]*spanStat {
	out := make(map[string]*spanStat)
	parents := make(map[string]bool) // names some span of the current group has as parent
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].Trace == spans[lo].Trace {
			hi++
		}
		group := spans[lo:hi]
		// Most spans are leaves; only look for children of the names some
		// span of the group gives as its parent.
		clear(parents)
		for i := range group {
			if p := group[i].Parent; p != "" {
				parents[p] = true
			}
		}
		for i := range group {
			s := &group[i]
			var covered int64
			if parents[s.Name] {
				covered = coveredBy(s, group)
			}
			st := out[s.Name]
			if st == nil {
				st = &spanStat{}
				out[s.Name] = st
			}
			st.Count++
			st.totalNS += s.End - s.Start
			st.selfTotal += s.End - s.Start - covered
		}
		lo = hi
	}
	for _, st := range out {
		st.MeanUS = float64(st.totalNS) / float64(st.Count) / 1e3
		st.SelfUS = float64(st.selfTotal) / float64(st.Count) / 1e3
	}
	return out
}

// coveredBy returns how many nanoseconds of parent's interval its children in
// group cover (overlapping children counted once). group is sorted by start.
func coveredBy(parent *span, group []span) int64 {
	var covered int64
	cursor := parent.Start
	for i := range group {
		c := &group[i]
		if c == parent || c.Parent != parent.Name {
			continue
		}
		start, end := c.Start, c.End
		if start < cursor {
			start = cursor
		}
		if end > parent.End {
			end = parent.End
		}
		if end > start {
			covered += end - start
			cursor = end
		}
	}
	return covered
}

// maxSpansWritten caps the span file: a 10 s run of the small-message
// workload records several hundred thousand spans, and the first 50 000 are
// plenty to inspect individual messages; the summary covers all of them.
const maxSpansWritten = 50_000

// writeSpans writes spans as JSON lines under dir and returns the file path.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace out: %w", err)
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace out: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := len(spans)
	if n > maxSpansWritten {
		n = maxSpansWritten
	}
	for i := 0; i < n; i++ {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("trace out: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace out: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace out: %w", err)
	}
	return path, nil
}
