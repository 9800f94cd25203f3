package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

// oneState is the fused learner's checkpoint shape: a one-member set.
func oneState(version int64, weights ...float32) []FragmentState {
	return []FragmentState{{Name: "learner", State: State{Version: version, Weights: weights}}}
}

// latestVersion loads the newest readable set at path and returns its one
// member's version.
func latestVersion(t *testing.T, path string) int64 {
	t.Helper()
	got, err := LoadLatestFragments(path)
	if err != nil {
		t.Fatalf("LoadLatestFragments: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("LoadLatestFragments = %d states, want 1", len(got))
	}
	return got[0].State.Version
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	in := oneState(42, 1.5, -2.25, 0, 3e8)
	if err := SaveFragments(path, in); err != nil {
		t.Fatalf("SaveFragments: %v", err)
	}
	out, err := LoadFragments(path)
	if err != nil {
		t.Fatalf("LoadFragments: %v", err)
	}
	if len(out) != 1 || out[0].Name != "learner" || out[0].State.Version != 42 ||
		len(out[0].State.Weights) != len(in[0].State.Weights) {
		t.Fatalf("LoadFragments = %+v", out)
	}
	for i, w := range in[0].State.Weights {
		if out[0].State.Weights[i] != w {
			t.Fatalf("weight %d mismatch", i)
		}
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := SaveFragments(path, oneState(1, 1)); err != nil {
		t.Fatalf("SaveFragments: %v", err)
	}
	if err := SaveFragments(path, oneState(2, 2, 3)); err != nil {
		t.Fatalf("SaveFragments overwrite: %v", err)
	}
	out, err := LoadFragments(path)
	if err != nil {
		t.Fatalf("LoadFragments: %v", err)
	}
	if len(out) != 1 || out[0].State.Version != 2 || len(out[0].State.Weights) != 2 {
		t.Fatalf("LoadFragments after overwrite = %+v", out)
	}
	// No stray temp files.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := LoadFragments(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("LoadFragments missing file did not error")
	}
}

func TestLoadCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := SaveFragments(path, oneState(7, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-8] ^= 0xFF // flip a weight byte; checksum must catch it
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFragments(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LoadFragments corrupt = %v, want ErrCorrupt", err)
	}
}

func TestLoadTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFragments(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LoadFragments truncated = %v, want ErrCorrupt", err)
	}
}

func TestSaveRotatingKeepsLastK(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	const keep = 3
	for v := int64(1); v <= 5; v++ {
		if err := SaveFragmentsRotating(path, oneState(v, float32(v)), keep); err != nil {
			t.Fatalf("SaveFragmentsRotating v%d: %v", v, err)
		}
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != keep {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want %d rotation members", names, keep)
	}
	// Oldest members pruned: model.ckpt.1 and .2 are gone, .3–.5 remain.
	for _, gone := range []string{"model.ckpt.1", "model.ckpt.2"} {
		if _, err := os.Stat(filepath.Join(filepath.Dir(path), gone)); !os.IsNotExist(err) {
			t.Fatalf("%s still exists after pruning", gone)
		}
	}
	if v := latestVersion(t, path); v != 5 {
		t.Fatalf("LoadLatestFragments version = %d, want 5", v)
	}
}

func TestLoadLatestSkipsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	for v := int64(1); v <= 3; v++ {
		if err := SaveFragmentsRotating(path, oneState(v, float32(v)), 5); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the newest member; restore must fall back to the previous one.
	newest := path + ".3"
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-8] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if v := latestVersion(t, path); v != 2 {
		t.Fatalf("LoadLatestFragments version = %d, want 2 (newest good member)", v)
	}
}

func TestLoadLatestBarePathFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := SaveFragments(path, oneState(11, 1)); err != nil {
		t.Fatal(err)
	}
	if v := latestVersion(t, path); v != 11 {
		t.Fatalf("LoadLatestFragments version = %d, want 11", v)
	}
}

// TestLoadLatestGarbageIsCorrupt: a file at the path that is no checkpoint
// is reported, not taken for a fresh start: the error wraps ErrCorrupt and
// names the file.
func TestLoadLatestGarbageIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := os.WriteFile(path, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadLatestFragments(path)
	if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNoCheckpoint) || !strings.Contains(err.Error(), path) {
		t.Fatalf("LoadLatestFragments over garbage = %v, want ErrCorrupt naming %s", err, path)
	}
}

// TestLoadLatestAllCorruptNamesNewest: when every member of a rotation
// fails validation, the error wraps ErrCorrupt and names the newest member.
func TestLoadLatestAllCorruptNamesNewest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	for v := int64(1); v <= 3; v++ {
		if err := SaveFragmentsRotating(path, oneState(v, float32(v)), 5); err != nil {
			t.Fatal(err)
		}
		member := fmt.Sprintf("%s.%d", path, v)
		data, err := os.ReadFile(member)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(member, data[:len(data)-1], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := LoadLatestFragments(path)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), path+".3") {
		t.Fatalf("LoadLatestFragments over a corrupt rotation = %v, want ErrCorrupt naming %s.3", err, path)
	}
}

func TestLoadLatestNoCheckpoint(t *testing.T) {
	if _, err := LoadLatestFragments(filepath.Join(t.TempDir(), "model.ckpt")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("LoadLatestFragments empty dir = %v, want ErrNoCheckpoint", err)
	}
	// A missing directory is also "no checkpoint", not an error.
	if _, err := LoadLatestFragments(filepath.Join(t.TempDir(), "sub", "model.ckpt")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("LoadLatestFragments missing dir = %v, want ErrNoCheckpoint", err)
	}
}

// TestPropertyRoundTrip: arbitrary named states survive the disk round trip.
func TestPropertyRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.ckpt")
	f := func(name string, version int64, weights []float32) bool {
		in := []FragmentState{{Name: name, State: State{Version: version, Weights: weights}}}
		if err := SaveFragments(path, in); err != nil {
			return false
		}
		out, err := LoadFragments(path)
		if err != nil || len(out) != 1 || out[0].Name != name || out[0].State.Version != version ||
			len(out[0].State.Weights) != len(weights) {
			return false
		}
		for j, w := range weights {
			// NaN != NaN; compare bit patterns via == only for non-NaN.
			if w == w && out[0].State.Weights[j] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
