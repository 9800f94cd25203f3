package checkpoint_test

import (
	"path/filepath"
	"testing"

	"xingtian/internal/checkpoint"
	"xingtian/internal/core"
)

// BenchmarkFragmentsRoundTrip measures one fragment-set checkpoint round
// trip (broadcaster aggregate plus two replicas, 100k parameters each) — the
// periodic save the broadcast fragment performs while training, plus the
// restore a resumed session performs once. It is an external test package
// because core imports checkpoint.
func BenchmarkFragmentsRoundTrip(b *testing.B) {
	weights := make([]float32, 100_000)
	for i := range weights {
		weights[i] = float32(i) * 0.25
	}
	states := []checkpoint.FragmentState{
		{Name: core.BroadcastName, State: checkpoint.State{Version: 7, Weights: weights}},
		{Name: core.LearnName(0), State: checkpoint.State{Version: 7, Weights: weights}},
		{Name: core.LearnName(1), State: checkpoint.State{Version: 6, Weights: weights}},
	}
	path := filepath.Join(b.TempDir(), "frag.ckpt")
	b.SetBytes(int64(3 * 4 * len(weights)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := checkpoint.SaveFragments(path, states); err != nil {
			b.Fatal(err)
		}
		if _, err := checkpoint.LoadFragments(path); err != nil {
			b.Fatal(err)
		}
	}
}
