// Package recordio implements a simple record-oriented file format used for
// all data exchanged through the simulated distributed filesystem: corpora,
// label-matrix shards, and probabilistic training labels.
//
// The format is a sequence of frames:
//
//	magic  [4]byte  "SDRB" (Snorkel DryBell)
//	length uint32   little-endian payload length
//	crc32  uint32   IEEE checksum of the payload
//	payload [length]byte
//
// Split detects truncation and corruption and surfaces them as errors, which
// the MapReduce layer uses for failure-injection tests. This stands in for
// the record formats of Google's production storage stack (paper §5.1, §5.4:
// "labeling functions are independent executables that use a distributed
// filesystem to share data").
package recordio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

var magic = [4]byte{'S', 'D', 'R', 'B'}

// Errors reported by Split and AppendFrame.
var (
	// ErrCorrupt indicates a frame whose checksum or header is invalid.
	ErrCorrupt = errors.New("recordio: corrupt record")
	// ErrTooLarge indicates a frame longer than MaxRecordSize.
	ErrTooLarge = errors.New("recordio: record exceeds maximum size")
)

// MaxRecordSize bounds a single record. Larger frames are rejected to avoid
// huge allocations from corrupt length headers.
const MaxRecordSize = 64 << 20 // 64 MiB

// HeaderSize is the length of a frame's header: magic, length and checksum.
const HeaderSize = 12

// AppendFrame appends payload to b as one frame and returns the extended
// slice; a payload over MaxRecordSize is ErrTooLarge and leaves b as it was.
// It is the only code that builds a frame: a b with room for
// HeaderSize+len(payload) more bytes is written in place, not reallocated.
func AppendFrame(b, payload []byte) ([]byte, error) {
	if len(payload) > MaxRecordSize {
		return b, ErrTooLarge
	}
	b = append(b, magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...), nil
}

// EncodedSize is the size of the stream Encode makes of records.
func EncodedSize(records [][]byte) int {
	size := HeaderSize * len(records)
	for _, rec := range records {
		size += len(rec)
	}
	return size
}

// Split decodes every record of a whole encoded stream in place: the records
// alias data instead of being copied out of it. Every frame passes the checks
// the streaming reference decoder in the tests applies — magic, length bound,
// checksum — and a damaged stream is the same error.
func Split(data []byte) ([][]byte, error) {
	var out [][]byte
	for len(data) > 0 {
		if len(data) < HeaderSize {
			return out, fmt.Errorf("recordio: truncated header after %d records: %w", len(out), ErrCorrupt)
		}
		if [4]byte(data[0:4]) != magic {
			return out, fmt.Errorf("recordio: bad magic %q at record %d: %w", data[0:4], len(out), ErrCorrupt)
		}
		length := binary.LittleEndian.Uint32(data[4:8])
		if length > MaxRecordSize {
			return out, fmt.Errorf("recordio: frame length %d at record %d: %w", length, len(out), ErrTooLarge)
		}
		if int(length) > len(data)-HeaderSize {
			return out, fmt.Errorf("recordio: truncated payload at record %d: %w", len(out), ErrCorrupt)
		}
		payload := data[HeaderSize : HeaderSize+int(length) : HeaderSize+int(length)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[8:12]) {
			return out, fmt.Errorf("recordio: checksum mismatch at record %d: %w", len(out), ErrCorrupt)
		}
		out = append(out, payload)
		data = data[HeaderSize+int(length):]
	}
	return out, nil
}

// Encode frames records into one stream of exactly EncodedSize(records)
// bytes.
func Encode(records [][]byte) ([]byte, error) {
	buf := make([]byte, 0, EncodedSize(records))
	for _, rec := range records {
		var err error
		if buf, err = AppendFrame(buf, rec); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
