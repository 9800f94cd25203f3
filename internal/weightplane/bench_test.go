package weightplane

import (
	"math/rand"
	"testing"

	"xingtian/internal/serialize"
)

// planSink keeps BenchmarkPlan's result live.
var planSink []Outbound

// BenchmarkPlan plans one int8 delta broadcast per iteration on the shape of
// the downlink-weights workload: 300 k parameters, 1 % of them nudged by up
// to ±0.01 per version, four destinations that are all up to date.
func BenchmarkPlan(b *testing.B) {
	const params = 300_000
	const touched = params / 100
	rng := rand.New(rand.NewSource(1))
	cur := make([]float32, params)
	for i := range cur {
		cur[i] = float32(rng.NormFloat64() * 0.1)
	}
	steps := make([][]int32, 64)
	for s := range steps {
		steps[s] = make([]int32, touched)
		for i := range steps[s] {
			steps[s][i] = int32(rng.Intn(params))
		}
	}
	dsts := []string{"explorer-0", "explorer-1", "explorer-2", "explorer-3"}
	p := New(Config{Enabled: true, QuantBits: serialize.QuantInt8})
	p.Plan(cur, 0, dsts, nil)
	b.ReportAllocs()
	b.SetBytes(4 * params)
	b.ResetTimer()
	for v := int64(1); v <= int64(b.N); v++ {
		for _, i := range steps[int(v)%len(steps)] {
			cur[i] += (rng.Float32()*2 - 1) * 0.01
		}
		planSink = p.Plan(cur, v, dsts, nil)
	}
}
