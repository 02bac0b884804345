package recordio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"testing"
	"testing/quick"
)

// Reader decodes records from an io.Reader one frame at a time: the
// streaming reference Split is held to (TestSplitMatchesReadAll, FuzzSplit).
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

func errCorruptFrom(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrCorrupt
	}
	return err
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

func TestRoundTripBasic(t *testing.T) {
	records := [][]byte{[]byte("hello"), []byte(""), []byte("world"), {0, 1, 2, 255}}
	data, err := Encode(records)
	if err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(data))
	for i, want := range records {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("record %d = %q, want %q", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after last record: %v, want io.EOF", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(records [][]byte) bool {
		data, err := Encode(records)
		if err != nil {
			return false
		}
		got, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return false
		}
		if len(got) != len(records) {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i], records[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCorruptionDetectedAtEveryByte(t *testing.T) {
	data, err := Encode([][]byte{[]byte("payload-one"), []byte("payload-two")})
	if err != nil {
		t.Fatal(err)
	}
	clean := data
	for off := 0; off < len(clean); off++ {
		dirty := make([]byte, len(clean))
		copy(dirty, clean)
		dirty[off] ^= 0xFF
		_, err := ReadAll(bytes.NewReader(dirty))
		if err == nil {
			t.Fatalf("corruption at byte %d not detected", off)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	data, err := Encode([][]byte{[]byte("0123456789")})
	if err != nil {
		t.Fatal(err)
	}
	full := data
	for cut := 1; cut < len(full); cut++ {
		_, err := ReadAll(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes not detected", cut, len(full))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestEmptyStream(t *testing.T) {
	got, err := ReadAll(bytes.NewReader(nil))
	if err != nil || len(got) != 0 {
		t.Errorf("ReadAll(empty) = %v, %v", got, err)
	}
}

func TestHugeLengthRejected(t *testing.T) {
	// Hand-craft a frame claiming an enormous payload.
	frame := []byte{'S', 'D', 'R', 'B', 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}
	_, err := ReadAll(bytes.NewReader(frame))
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestWriterRejectsOversizeRecord(t *testing.T) {
	if _, err := Encode([][]byte{make([]byte, MaxRecordSize+1)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestBadMagic(t *testing.T) {
	data, err := Encode([][]byte{[]byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	if _, err := ReadAll(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

// splitStreams is the corpus TestSplitMatchesReadAll checks and FuzzSplit
// starts from: an intact stream, the empty stream, a frame announcing more
// than MaxRecordSize, and the intact stream with each byte flipped in turn
// and cut at every length. It returns the intact stream first.
func splitStreams(tb testing.TB) [][]byte {
	tb.Helper()
	records := [][]byte{[]byte("hello"), {}, []byte("a longer third record"), {0, 1, 2, 255}}
	data, err := Encode(records)
	if err != nil {
		tb.Fatal(err)
	}
	intact := data
	streams := [][]byte{intact, nil, {'S', 'D', 'R', 'B', 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}}
	for i := range intact {
		flipped := bytes.Clone(intact)
		flipped[i] ^= 0x40
		streams = append(streams, flipped, intact[:i])
	}
	return streams
}

// compareSplit fails unless Split returns the records ReadAll returns for
// data, and an error of the same class: ErrCorrupt, ErrTooLarge or none. It
// returns both errors.
func compareSplit(t *testing.T, data []byte) (gotErr, wantErr error) {
	t.Helper()
	want, wantErr := ReadAll(bytes.NewReader(data))
	got, gotErr := Split(data)
	if len(got) != len(want) {
		t.Fatalf("stream %q: Split returned %d records, ReadAll %d", data, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("stream %q: record %d = %q, ReadAll says %q", data, i, got[i], want[i])
		}
	}
	if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrCorrupt) != errors.Is(wantErr, ErrCorrupt) || errors.Is(gotErr, ErrTooLarge) != errors.Is(wantErr, ErrTooLarge) {
		t.Fatalf("stream %q: Split error %v is another class than ReadAll's %v", data, gotErr, wantErr)
	}
	return gotErr, wantErr
}

// TestSplitMatchesReadAll holds the in-place decoder to the streaming one:
// over splitStreams, Split returns the records ReadAll returns and fails with
// the error ReadAll fails with — while copying nothing.
func TestSplitMatchesReadAll(t *testing.T) {
	streams := splitStreams(t)
	for _, data := range streams {
		gotErr, wantErr := compareSplit(t, data)
		if gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("stream %q: Split error %v, ReadAll error %v", data, gotErr, wantErr)
		}
	}
	intact := streams[0]
	got, err := Split(intact)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0][0] != &intact[HeaderSize] {
		t.Error("Split copied the first record out of the stream")
	}
}

// FuzzSplit holds Split to ReadAll on arbitrary bytes: the same records, the
// same error class, and no panic from either. A stream Split accepts is
// AppendFrame's framing of its records, byte for byte; the last seed is one
// AppendFrame built.
func FuzzSplit(f *testing.F) {
	for _, data := range splitStreams(f) {
		f.Add(data)
	}
	var appended []byte
	for _, rec := range [][]byte{[]byte("framed"), {}, bytes.Repeat([]byte{0xab}, 5000)} {
		var err error
		if appended, err = AppendFrame(appended, rec); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(appended)
	f.Fuzz(func(t *testing.T, data []byte) {
		if gotErr, _ := compareSplit(t, data); gotErr != nil {
			return
		}
		records, _ := Split(data)
		var framed []byte
		for _, rec := range records {
			framed, _ = AppendFrame(framed, rec)
		}
		if !bytes.Equal(framed, data) {
			t.Fatalf("stream %q: AppendFrame of its records gives %q", data, framed)
		}
	})
}

// TestAppendFrame: AppendFrame writes frames the streaming Reader decodes
// back to the records, in place when the slice has room, and refuses a
// payload over MaxRecordSize, leaving the slice as it was.
func TestAppendFrame(t *testing.T) {
	records := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte("x"), 10000)}
	buf := make([]byte, 0, EncodedSize(records))
	for _, rec := range records {
		var err error
		if buf, err = AppendFrame(buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := ReadAll(bytes.NewReader(buf)); err != nil || !slices.EqualFunc(got, records, bytes.Equal) || cap(buf) != len(buf) {
		t.Fatalf("AppendFrame built %d bytes in a %d-byte slice, decoding to %d records (%v); want %d records in place", len(buf), cap(buf), len(got), err, len(records))
	}
	if got, err := AppendFrame(buf, make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrTooLarge) || len(got) != len(buf) {
		t.Errorf("oversize payload: %d bytes, %v; want the slice unchanged and ErrTooLarge", len(got), err)
	}
}
