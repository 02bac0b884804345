package recordio

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestRoundTripBasic(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	records := [][]byte{[]byte("hello"), []byte(""), []byte("world"), {0, 1, 2, 255}}
	for _, r := range records {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(records) {
		t.Errorf("Count = %d, want %d", w.Count(), len(records))
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
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
	if r.Count() != len(records) {
		t.Errorf("reader Count = %d, want %d", r.Count(), len(records))
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(records [][]byte) bool {
		var buf bytes.Buffer
		if err := WriteAll(&buf, records); err != nil {
			return false
		}
		got, err := ReadAll(bytes.NewReader(buf.Bytes()))
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
	var buf bytes.Buffer
	if err := WriteAll(&buf, [][]byte{[]byte("payload-one"), []byte("payload-two")}); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
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
	var buf bytes.Buffer
	if err := WriteAll(&buf, [][]byte{[]byte("0123456789")}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
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
	w := NewWriter(io.Discard)
	if err := w.Write(make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] = 'X'
	_, err := ReadAll(bytes.NewReader(data))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestBytesAccounting(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Bytes() != int64(buf.Len()) {
		t.Errorf("Bytes() = %d, buffer has %d", w.Bytes(), buf.Len())
	}
}

// splitStreams is the corpus TestSplitMatchesReadAll checks and FuzzSplit
// starts from: an intact stream, the empty stream, a frame announcing more
// than MaxRecordSize, and the intact stream with each byte flipped in turn
// and cut at every length. It returns the intact stream first.
func splitStreams(tb testing.TB) [][]byte {
	tb.Helper()
	records := [][]byte{[]byte("hello"), {}, []byte("a longer third record"), {0, 1, 2, 255}}
	var buf bytes.Buffer
	if err := WriteAll(&buf, records); err != nil {
		tb.Fatal(err)
	}
	intact := buf.Bytes()
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

// TestAppendFrame: AppendFrame writes the frames a Writer writes, in place
// when the slice has room, and refuses a payload over MaxRecordSize, leaving
// the slice as it was.
func TestAppendFrame(t *testing.T) {
	records := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte("x"), 10000)}
	var want bytes.Buffer
	if err := WriteAll(&want, records); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, EncodedSize(records))
	for _, rec := range records {
		var err error
		if buf, err = AppendFrame(buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf, want.Bytes()) || cap(buf) != len(buf) {
		t.Fatalf("AppendFrame built %d bytes in a %d-byte slice, want the %d WriteAll wrote in place", len(buf), cap(buf), want.Len())
	}
	if got, err := AppendFrame(buf, make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrTooLarge) || len(got) != len(buf) {
		t.Errorf("oversize payload: %d bytes, %v; want the slice unchanged and ErrTooLarge", len(got), err)
	}
}
