package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func sampleStates() []FragmentState {
	return []FragmentState{
		{Name: "broadcaster", State: State{Version: 42, Weights: []float32{1.5, -2.25, 0}}},
		{Name: "learn-0", State: State{Version: 41, Weights: []float32{0.5, 0.25, -1}}},
		{Name: "learn-1", State: State{Version: 40, Weights: []float32{3, 4, 5}}},
	}
}

func TestFragmentsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frag.ckpt")
	want := sampleStates()
	if err := SaveFragments(path, want); err != nil {
		t.Fatalf("SaveFragments: %v", err)
	}
	got, err := LoadFragments(path)
	if err != nil {
		t.Fatalf("LoadFragments: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d states, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].State.Version != want[i].State.Version {
			t.Fatalf("state %d = %+v, want %+v", i, got[i], want[i])
		}
		for j, w := range want[i].State.Weights {
			if got[i].State.Weights[j] != w {
				t.Fatalf("state %d weight %d = %v, want %v", i, j, got[i].State.Weights[j], w)
			}
		}
	}
}

func TestFragmentsEmptySet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frag.ckpt")
	if err := SaveFragments(path, nil); err != nil {
		t.Fatalf("SaveFragments(nil): %v", err)
	}
	got, err := LoadFragments(path)
	if err != nil {
		t.Fatalf("LoadFragments: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d states, want 0", len(got))
	}
}

func TestFragmentsCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frag.ckpt")
	if err := SaveFragments(path, sampleStates()); err != nil {
		t.Fatalf("SaveFragments: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"flipped-byte", func(b []byte) []byte { b[9] ^= 0xff; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mutate(append([]byte(nil), data...))
			p := filepath.Join(t.TempDir(), "bad.ckpt")
			if err := os.WriteFile(p, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadFragments(p); !errors.Is(err, ErrCorrupt) && err == nil {
				t.Fatalf("LoadFragments(%s) = %v, want error", tc.name, err)
			}
		})
	}
}

// TestFragmentsPlainCheckpointRejected: a single-state checkpoint written by
// an earlier build ("XTCP" magic, version 1, one weight, CRC) must fail
// cleanly, not misparse as a fragment set.
func TestFragmentsPlainCheckpointRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plain.ckpt")
	plain := []byte{
		0x50, 0x43, 0x54, 0x58, // magic "XTCP"
		1, 0, 0, 0, 0, 0, 0, 0, // version 1
		1, 0, 0, 0, // one weight
		0x00, 0x00, 0x80, 0x3f, // 1.0
	}
	plain = binary.LittleEndian.AppendUint32(plain, crc32.ChecksumIEEE(plain))
	if err := os.WriteFile(path, plain, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFragments(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LoadFragments on plain checkpoint = %v, want ErrCorrupt", err)
	}
}

func TestFragmentsRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frag.ckpt")
	for v := int64(1); v <= 5; v++ {
		states := []FragmentState{{Name: "broadcaster", State: State{Version: v, Weights: []float32{float32(v)}}}}
		if err := SaveFragmentsRotating(path, states, 3); err != nil {
			t.Fatalf("SaveFragmentsRotating v%d: %v", v, err)
		}
	}
	members, err := rotationMembers(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 3 {
		t.Fatalf("rotation kept %d members, want 3", len(members))
	}
	got, err := LoadLatestFragments(path)
	if err != nil {
		t.Fatalf("LoadLatestFragments: %v", err)
	}
	if got[0].State.Version != 5 {
		t.Fatalf("latest version = %d, want 5", got[0].State.Version)
	}
}

// TestFragmentsLatestSkipsCorrupt: a torn newest member must not block
// restoring from the previous good one.
func TestFragmentsLatestSkipsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frag.ckpt")
	good := []FragmentState{{Name: "broadcaster", State: State{Version: 7, Weights: []float32{7}}}}
	if err := SaveFragmentsRotating(path, good, 3); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fmt.Sprintf("%s.2", path), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLatestFragments(path)
	if err != nil {
		t.Fatalf("LoadLatestFragments: %v", err)
	}
	if got[0].State.Version != 7 {
		t.Fatalf("restored version = %d, want 7", got[0].State.Version)
	}
}

func TestLoadLatestFragmentsMissing(t *testing.T) {
	if _, err := LoadLatestFragments(filepath.Join(t.TempDir(), "none.ckpt")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

// TestFragmentsLoadRacingSave: the standby-rebuild path (§5j) reads the
// fragment checkpoint while the incumbent is still writing rotations. A
// concurrent LoadLatestFragments must never observe a torn fragment set —
// every successful load returns a complete, internally consistent snapshot
// from some finished rotation member (all fragments from the same save, the
// broadcaster's version matching its weights) — and must never report
// ErrNoCheckpoint because the saver pruned every member it listed.
func TestFragmentsLoadRacingSave(t *testing.T) {
	t.Run("fragments", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "racing.ckpt")
		if err := saveFragmentsVersion(path, 1); err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		saverDone := make(chan error, 1)
		go func() {
			var err error
			for v := int64(2); ; v++ {
				select {
				case <-stop:
					saverDone <- err
					return
				default:
				}
				if serr := saveFragmentsVersion(path, v); serr != nil && err == nil {
					err = serr
				}
			}
		}()

		for i := 0; i < 200; i++ {
			if err := loadFragmentsConsistent(path); err != nil {
				t.Fatalf("load %d: %v", i, err)
			}
		}
		close(stop)
		if err := <-saverDone; err != nil {
			t.Fatalf("saver: %v", err)
		}
	})
}

// saveFragmentsVersion saves rotation member v of a two-fragment set.
func saveFragmentsVersion(path string, v int64) error {
	return SaveFragmentsRotating(path, []FragmentState{
		{Name: "broadcaster", State: State{Version: v, Weights: []float32{float32(v), float32(v)}}},
		{Name: "sampler", State: State{Version: v}},
	}, 3)
}

// loadFragmentsConsistent loads the newest fragment set and checks it is one
// save's complete output.
func loadFragmentsConsistent(path string) error {
	got, err := LoadLatestFragments(path)
	if err != nil {
		return err
	}
	if len(got) != 2 {
		return fmt.Errorf("%d fragments, want 2 (torn set)", len(got))
	}
	byName := map[string]State{}
	for _, fs := range got {
		byName[fs.Name] = fs.State
	}
	b, ok := byName["broadcaster"]
	if !ok {
		return fmt.Errorf("broadcaster missing: %+v", got)
	}
	s, ok := byName["sampler"]
	if !ok {
		return fmt.Errorf("sampler missing: %+v", got)
	}
	// Same-save consistency: both fragments carry the save's version, and
	// the broadcaster's weights encode it too.
	if b.Version != s.Version {
		return fmt.Errorf("torn set — broadcaster v%d, sampler v%d", b.Version, s.Version)
	}
	if len(b.Weights) != 2 || b.Weights[0] != float32(b.Version) {
		return fmt.Errorf("broadcaster v%d carries weights %v", b.Version, b.Weights)
	}
	return nil
}
