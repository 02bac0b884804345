package labelmodel

import (
	"fmt"
	"slices"
	"testing"
)

// fuzzMatrix decodes fuzz bytes into a vote matrix: data[0] picks the width,
// 1 to 70 functions; data[1]'s low bit picks how the rest become votes — as
// raw bytes, so most are out of range, or as byte mod 3 minus one, so all are
// legal; the rest fill rows, at most 256, a partial last row dropped. It
// returns nil when no whole row is left.
func fuzzMatrix(data []byte) *Matrix {
	if len(data) < 2 {
		return nil
	}
	n, raw, votes := 1+int(data[0])%70, data[1]&1 == 1, data[2:]
	m := min(len(votes)/n, 256)
	if m == 0 {
		return nil
	}
	mx := NewMatrix(m, n)
	for i := range mx.data {
		if raw {
			mx.data[i] = Label(int8(votes[i]))
		} else {
			mx.data[i] = Label(int(votes[i])%3 - 1)
		}
	}
	return mx
}

// FuzzCompact: compaction is one algorithm at every width and chunk count.
// Any bytes give an error or a compaction, never a panic; an error exactly
// when a vote is out of range. A compaction reconstructs its matrix, has the
// distinct rows a plain map finds, and equals, field for field and row index
// included, the compaction extended to the whole matrix from every prefix's,
// its appended rows split into 1 to 8 chunks as data[1]'s upper bits say.
func FuzzCompact(f *testing.F) {
	for _, n := range []int{1, 10, 32, 33, 70} {
		// Seeds on both sides of 32 functions: legal votes with repeated rows,
		// and raw bytes holding one out-of-range vote in their last row.
		legal := []byte{byte(n - 1), 0}
		raw := []byte{byte(n - 1), 1}
		for i := 0; i < 12*n; i++ {
			row, j := i/n, i%n
			legal = append(legal, byte((7*j+row%3)%5))
			raw = append(raw, []byte{0, 1, 0xff}[(j+row)%3])
		}
		raw[len(raw)-1] = 9
		f.Add(legal)
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mx := fuzzMatrix(data)
		if mx == nil {
			return
		}
		chunks := 1 + int(data[1]>>1)%8
		want, err := mx.CompactChecked()
		if verr := mx.Validate(); (err != nil) != (verr != nil) {
			t.Fatalf("CompactChecked error %v, Validate error %v", err, verr)
		}
		cold, cerr := extendCompact(&CompactMatrix{n: mx.n}, mx, chunks)
		if fmt.Sprint(cerr) != fmt.Sprint(err) {
			t.Fatalf("%d chunks: error %v, one chunk's %v", chunks, cerr, err)
		}
		if err != nil {
			return
		}
		requireSameCompact(t, fmt.Sprintf("%d chunks", chunks), cold, want)
		back := want.Reconstruct()
		if !slices.Equal(back.data, mx.data) {
			t.Fatal("Reconstruct is not the identity")
		}
		if unique, _ := naiveCompactCounts(mx); want.NumUnique() != unique {
			t.Fatalf("%d distinct rows, a map finds %d", want.NumUnique(), unique)
		}
		for k := 1; k <= mx.NumExamples(); k++ {
			got, err := extendCompact(prefix(mx, k).Compact(), mx, chunks)
			if err != nil {
				t.Fatalf("split %d: %v", k, err)
			}
			requireSameCompact(t, fmt.Sprintf("split %d", k), got, want)
		}
	})
}
