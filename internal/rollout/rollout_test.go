package rollout

import (
	"testing"
	"testing/quick"

	"xingtian/internal/env"
)

func TestSizeBytesVectorObs(t *testing.T) {
	b := &Batch{
		Steps: []Step{
			{Obs: env.Obs{Vec: make([]float32, 4)}, Logits: make([]float32, 2)},
		},
		BootstrapObs: env.Obs{Vec: make([]float32, 4)},
	}
	// 16 header + (16 obs + 17 fixed + 8 logits) + 16 bootstrap.
	want := 16 + (16 + 17 + 8) + 16
	if got := b.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
}

func TestSizeBytesFrameObsDominates(t *testing.T) {
	frame := make([]byte, 84*84*4)
	b := &Batch{Steps: []Step{{Obs: env.Obs{Frame: frame, FrameH: 84, FrameW: 84, FrameN: 4}}}}
	if got := b.SizeBytes(); got < len(frame) {
		t.Fatalf("SizeBytes = %d, want >= frame size %d", got, len(frame))
	}
}

// TestPropertySizeMonotone: adding steps never shrinks the batch size.
func TestPropertySizeMonotone(t *testing.T) {
	f := func(stepCounts []uint8) bool {
		b := &Batch{}
		prev := b.SizeBytes()
		for range stepCounts {
			b.Steps = append(b.Steps, Step{Obs: env.Obs{Vec: make([]float32, 4)}})
			cur := b.SizeBytes()
			if cur <= prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
