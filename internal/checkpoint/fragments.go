package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
)

// fragMagic identifies fragment-set checkpoint files.
const fragMagic = 0x58544653 // "XTFS"

// FragmentState is one named fragment's parameter snapshot inside a
// fragment-set checkpoint: the broadcast fragment's committed aggregate plus
// each learn replica's last pushed weights, keyed by canonical fragment name.
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
	buf = binary.LittleEndian.AppendUint32(buf, fragMagic)
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

// SaveFragmentsRotating writes the states as the next member of path's
// rotation set (path.N ascending, newest largest), pruning members beyond
// keep — the fragment-set counterpart of SaveRotating.
func SaveFragmentsRotating(path string, states []FragmentState, keep int) error {
	return saveRotating(path, keep, func(member string) error { return SaveFragments(member, states) })
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
	if binary.LittleEndian.Uint32(body) != fragMagic {
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
// at path: rotation members newest-first, then the bare path. Corrupt
// members are skipped; ErrNoCheckpoint means nothing restorable exists.
func LoadLatestFragments(path string) ([]FragmentState, error) {
	var states []FragmentState
	err := loadNewest(path, func(file string) (err error) {
		states, err = LoadFragments(file)
		return err
	})
	return states, err
}
