// Package checkpoint persists DNN parameters to disk and restores them —
// the fault-tolerance mechanism §4.2 describes: the Algorithm class "saves
// the checkpoints of the DNNs periodically to restore DNN parameters after
// failure".
//
// Every checkpoint is a fragment set: named parameter snapshots in one file.
// The fused learner saves a one-member set; a fragmented topology saves the
// broadcast fragment's aggregate plus each learn replica's weights. Files
// are written atomically (temp file + rename) so a crash mid-write never
// corrupts the latest good checkpoint.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ErrCorrupt is returned when a checkpoint file fails validation.
var ErrCorrupt = errors.New("checkpoint: corrupt file")

// ErrNoCheckpoint is returned by LoadLatestFragments when no checkpoint
// file exists at the path — neither a rotation member nor a bare file.
var ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")

// magic identifies fragment-set checkpoint files.
const magic = 0x58544653 // "XTFS"

// State is a restorable parameter snapshot.
type State struct {
	// Version is the weights version at save time.
	Version int64
	// Weights are the flattened parameters.
	Weights []float32
}

// FragmentState is one named fragment's parameter snapshot inside a
// fragment-set checkpoint, keyed by canonical fragment name.
type FragmentState struct {
	Name  string
	State State
}

// SaveFragments writes the named states to path atomically as one
// fragment-set file, so a restore always sees a mutually consistent set.
func SaveFragments(path string, states []FragmentState) error {
	size := 12
	for _, fs := range states {
		size += 4 + len(fs.Name) + 12 + 4*len(fs.State.Weights)
	}
	buf := make([]byte, 0, size+4)
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(states)))
	for _, fs := range states {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fs.Name)))
		buf = append(buf, fs.Name...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(fs.State.Version))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fs.State.Weights)))
		for _, w := range fs.State.Weights {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(w))
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	if err := writeAtomic(path, buf); err != nil {
		return fmt.Errorf("checkpoint save fragments: %w", err)
	}
	return nil
}

// writeAtomic writes buf to a temp file beside path and renames it over
// path, so a crash mid-write never leaves a truncated file at path.
func writeAtomic(path string, buf []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(buf)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
	}
	return err
}

// SaveFragmentsRotating writes the states as the next member of a rotation
// set: path.1, path.2, … ascending, where a larger suffix is always newer.
// After the write, members beyond the newest keep are pruned; keep < 1 is
// treated as 1. Each member is written with SaveFragments' atomic temp-file
// + rename, so a crash mid-save leaves every older member intact.
func SaveFragmentsRotating(path string, states []FragmentState, keep int) error {
	if keep < 1 {
		keep = 1
	}
	members, err := rotationMembers(path)
	if err != nil {
		return fmt.Errorf("checkpoint rotate: %w", err)
	}
	next := 1
	if len(members) > 0 {
		next = members[len(members)-1] + 1
	}
	if err := SaveFragments(memberPath(path, next), states); err != nil {
		return err
	}
	members = append(members, next)
	for len(members) > keep {
		_ = os.Remove(memberPath(path, members[0]))
		members = members[1:]
	}
	return nil
}

// LoadFragments reads and validates one fragment-set checkpoint file.
func LoadFragments(path string) ([]FragmentState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint load fragments: %w", err)
	}
	if len(data) < 12 {
		return nil, fmt.Errorf("file too short: %w", ErrCorrupt)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("checksum mismatch: %w", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(body) != magic {
		return nil, fmt.Errorf("bad magic: %w", ErrCorrupt)
	}
	count := int(binary.LittleEndian.Uint32(body[4:]))
	off := 8
	need := func(n int) bool { return off+n <= len(body) }
	states := make([]FragmentState, 0, count)
	for i := 0; i < count; i++ {
		if !need(4) {
			return nil, fmt.Errorf("truncated name length: %w", ErrCorrupt)
		}
		nl := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if nl > len(body)-off {
			return nil, fmt.Errorf("truncated name: %w", ErrCorrupt)
		}
		name := string(body[off : off+nl])
		off += nl
		if !need(12) {
			return nil, fmt.Errorf("truncated state header: %w", ErrCorrupt)
		}
		version := int64(binary.LittleEndian.Uint64(body[off:]))
		off += 8
		nw := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if nw > (len(body)-off)/4 {
			return nil, fmt.Errorf("truncated weights: %w", ErrCorrupt)
		}
		weights := make([]float32, nw)
		for j := range weights {
			weights[j] = math.Float32frombits(binary.LittleEndian.Uint32(body[off+4*j:]))
		}
		off += 4 * nw
		states = append(states, FragmentState{Name: name, State: State{Version: version, Weights: weights}})
	}
	if off != len(body) {
		return nil, fmt.Errorf("trailing bytes: %w", ErrCorrupt)
	}
	return states, nil
}

// LoadLatestFragments restores the newest readable fragment-set checkpoint
// at path: rotation members (path.N) newest-first, then the bare path
// itself. Corrupt or unreadable files are skipped — a torn write of the
// newest checkpoint must not block restoring from an older good one — but
// when every file there fails, the error names the newest and wraps its
// failure (ErrCorrupt for a file that fails validation). ErrNoCheckpoint
// means no file exists. A concurrent rotating save can prune every member
// of one listing before it is read, so when nothing loads the members are
// listed again; the load gives up only once two consecutive listings are
// equal.
func LoadLatestFragments(path string) ([]FragmentState, error) {
	members, err := rotationMembers(path)
	for err == nil {
		var newest error // the newest existing file's failure
		for _, p := range append(memberPaths(path, members), path) {
			states, lerr := LoadFragments(p)
			if lerr == nil {
				return states, nil
			}
			if newest == nil && !errors.Is(lerr, fs.ErrNotExist) {
				newest = fmt.Errorf("%s: %w", p, lerr)
			}
		}
		var again []int
		if again, err = rotationMembers(path); err == nil && slices.Equal(again, members) {
			if newest != nil {
				return nil, newest
			}
			return nil, fmt.Errorf("%s: %w", path, ErrNoCheckpoint)
		}
		members = again
	}
	return nil, fmt.Errorf("checkpoint load: %w", err)
}

// memberPaths names path's rotation members, newest first.
func memberPaths(path string, members []int) []string {
	out := make([]string, 0, len(members)+1)
	for i := len(members) - 1; i >= 0; i-- {
		out = append(out, memberPath(path, members[i]))
	}
	return out
}

// memberPath names rotation member n of path.
func memberPath(path string, n int) string { return fmt.Sprintf("%s.%d", path, n) }

// rotationMembers lists the numeric suffixes of path's rotation set in
// ascending order.
func rotationMembers(path string) ([]int, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var members []int
	prefix := base + "."
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		n, err := strconv.Atoi(e.Name()[len(prefix):])
		if err != nil || n < 1 {
			continue
		}
		members = append(members, n)
	}
	sort.Ints(members)
	return members, nil
}
