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
// Readers detect truncation and corruption and surface them as errors, which
// the MapReduce layer uses for failure-injection tests. This stands in for
// the record formats of Google's production storage stack (paper §5.1, §5.4:
// "labeling functions are independent executables that use a distributed
// filesystem to share data").
package recordio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

var magic = [4]byte{'S', 'D', 'R', 'B'}

// Errors reported by Reader.
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

// Writer appends records to an io.Writer.
type Writer struct {
	w     *bufio.Writer
	n     int
	bytes int64
	// frame is the frame under construction, reused record after record.
	frame []byte
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one record.
func (w *Writer) Write(payload []byte) error {
	frame, err := AppendFrame(w.frame[:0], payload)
	if err != nil {
		return err
	}
	w.frame = frame
	if _, err := w.w.Write(frame); err != nil {
		return fmt.Errorf("recordio: write: %w", err)
	}
	w.n++
	w.bytes += int64(len(frame))
	return nil
}

// Flush flushes buffered frames to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Count returns the number of records written.
func (w *Writer) Count() int { return w.n }

// Bytes returns the total encoded size written, including headers.
func (w *Writer) Bytes() int64 { return w.bytes }

// Reader decodes records from an io.Reader.
type Reader struct {
	r *bufio.Reader
	n int
}

// NewReader returns a Reader consuming r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Next returns the next record's payload, io.EOF at a clean end of stream,
// or an error wrapping ErrCorrupt for damaged frames. The returned slice is
// freshly allocated and owned by the caller.
func (r *Reader) Next() ([]byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r.r, hdr[:1]); err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean end
		}
		return nil, fmt.Errorf("recordio: read header: %w", err)
	}
	if _, err := io.ReadFull(r.r, hdr[1:]); err != nil {
		return nil, fmt.Errorf("recordio: truncated header after %d records: %w", r.n, errCorruptFrom(err))
	}
	if hdr[0] != magic[0] || hdr[1] != magic[1] || hdr[2] != magic[2] || hdr[3] != magic[3] {
		return nil, fmt.Errorf("recordio: bad magic %q at record %d: %w", hdr[0:4], r.n, ErrCorrupt)
	}
	length := binary.LittleEndian.Uint32(hdr[4:8])
	if length > MaxRecordSize {
		return nil, fmt.Errorf("recordio: frame length %d at record %d: %w", length, r.n, ErrTooLarge)
	}
	sum := binary.LittleEndian.Uint32(hdr[8:12])
	payload := make([]byte, length)
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return nil, fmt.Errorf("recordio: truncated payload at record %d: %w", r.n, errCorruptFrom(err))
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("recordio: checksum mismatch at record %d: %w", r.n, ErrCorrupt)
	}
	r.n++
	return payload, nil
}

// Count returns the number of records successfully read so far.
func (r *Reader) Count() int { return r.n }

func errCorruptFrom(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrCorrupt
	}
	return err
}

// EncodedSize is the size of the stream WriteAll makes of records.
func EncodedSize(records [][]byte) int {
	size := HeaderSize * len(records)
	for _, rec := range records {
		size += len(rec)
	}
	return size
}

// Split decodes every record of a whole encoded stream in place: the records
// alias data instead of being copied out of it. Every frame passes the checks
// Reader.Next applies — magic, length bound, checksum — and a damaged stream
// is the same error.
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

// ReadAll decodes every record from r until EOF. It is the streaming
// reference Split is held to (TestSplitMatchesReadAll, FuzzSplit).
func ReadAll(r io.Reader) ([][]byte, error) {
	rd := NewReader(r)
	var out [][]byte
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// WriteAll encodes all records to w and flushes.
func WriteAll(w io.Writer, records [][]byte) error {
	wr := NewWriter(w)
	for _, rec := range records {
		if err := wr.Write(rec); err != nil {
			return err
		}
	}
	return wr.Flush()
}
