// Package checkpoint persists DNN parameters to disk and restores them —
// the fault-tolerance mechanism §4.2 describes: the Algorithm class "saves
// the checkpoints of the DNNs periodically to restore DNN parameters after
// failure".
//
// Files are written atomically (temp file + rename) so a crash mid-write
// never corrupts the latest good checkpoint.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

// ErrNoCheckpoint is returned by LoadLatest when no restorable checkpoint
// exists at the path — neither a rotation member nor a bare file.
var ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")

// magic identifies checkpoint files.
const magic = 0x58544350 // "XTCP"

// State is a restorable parameter snapshot.
type State struct {
	// Version is the weights version at save time.
	Version int64
	// Weights are the flattened parameters.
	Weights []float32
}

// Save writes the state to path atomically.
func Save(path string, s State) error {
	buf := make([]byte, 0, 24+4*len(s.Weights))
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Version))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Weights)))
	for _, w := range s.Weights {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(w))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	if err := writeAtomic(path, buf); err != nil {
		return fmt.Errorf("checkpoint save: %w", err)
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

// SaveRotating writes the state as the next member of a rotation set:
// path.1, path.2, … ascending, where a larger suffix is always newer. After
// the write, members beyond the newest keep are pruned. keep < 1 is treated
// as 1. Each member is written with Save's atomic temp-file + rename, so a
// crash mid-save leaves every older member intact.
func SaveRotating(path string, s State, keep int) error {
	return saveRotating(path, keep, func(member string) error { return Save(member, s) })
}

// saveRotating writes the next member of path's rotation set with save, then
// prunes all but the newest keep members.
func saveRotating(path string, keep int, save func(member string) error) error {
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
	if err := save(memberPath(path, next)); err != nil {
		return err
	}
	members = append(members, next)
	for len(members) > keep {
		_ = os.Remove(memberPath(path, members[0]))
		members = members[1:]
	}
	return nil
}

// LoadLatest restores the newest readable checkpoint at path: rotation
// members (path.N) newest-first, then the bare path itself. Corrupt or
// unreadable members are skipped — a torn write of the newest checkpoint
// must not block restoring from an older good one. ErrNoCheckpoint means
// nothing restorable exists.
func LoadLatest(path string) (State, error) {
	var s State
	err := loadNewest(path, func(file string) (err error) {
		s, err = Load(file)
		return err
	})
	return s, err
}

// loadNewest calls load on path's rotation members newest-first, then on the
// bare path, and stops at the first success. A concurrent rotating save can
// prune every member of one listing before it is read, so when nothing loads
// the members are listed again; ErrNoCheckpoint is returned only once two
// consecutive listings are equal.
func loadNewest(path string, load func(file string) error) error {
	members, err := rotationMembers(path)
	for err == nil {
		for i := len(members) - 1; i >= 0; i-- {
			if load(memberPath(path, members[i])) == nil {
				return nil
			}
		}
		if load(path) == nil {
			return nil
		}
		var again []int
		if again, err = rotationMembers(path); err == nil && slices.Equal(again, members) {
			return fmt.Errorf("%s: %w", path, ErrNoCheckpoint)
		}
		members = again
	}
	return fmt.Errorf("checkpoint load: %w", err)
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

// Load reads and validates a checkpoint.
func Load(path string) (State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return State{}, fmt.Errorf("checkpoint load: %w", err)
	}
	if len(data) < 20 {
		return State{}, fmt.Errorf("file too short: %w", ErrCorrupt)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return State{}, fmt.Errorf("checksum mismatch: %w", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(body) != magic {
		return State{}, fmt.Errorf("bad magic: %w", ErrCorrupt)
	}
	version := int64(binary.LittleEndian.Uint64(body[4:]))
	n := int(binary.LittleEndian.Uint32(body[12:]))
	if len(body) != 16+4*n {
		return State{}, fmt.Errorf("length mismatch: %w", ErrCorrupt)
	}
	weights := make([]float32, n)
	for i := range weights {
		weights[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[16+4*i:]))
	}
	return State{Version: version, Weights: weights}, nil
}
