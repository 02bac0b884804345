package labelmodel

import (
	"fmt"
	"slices"

	"repro/internal/par"
)

// CompactMatrix is the deduplicated form of a label matrix Λ: the distinct
// vote rows with their multiplicities, stored as packed per-row positive and
// negative column lists. An m×n ternary matrix has at most 3^n distinct rows,
// and real vote matrices have far fewer distinct rows than examples (the few
// labeling functions overlap the same way on many examples), so aggregating
// per-example computations over distinct rows weighted by multiplicity — the
// trick relational engines use to evaluate aggregates over duplicate-heavy
// relations — turns O(m·n) work per pass into O(U·n) with U ≪ m.
//
// Layout: row r's non-abstain votes are the columns
//
//	Cols[Start[r]   : PosEnd[r]]   (vote = +1)
//	Cols[PosEnd[r]  : Start[r+1]]  (vote = −1)
//
// a CSR-style packing with the positive segment first, so per-row positive
// and negative counts fall out of the offsets without storing the votes
// themselves.
type CompactMatrix struct {
	m, n int

	// Mult[r] is the number of original examples with row pattern r.
	// Multiplicities sum to NumExamples.
	Mult []int32
	// Start/PosEnd delimit each row's packed column segments (see above).
	// Start has U+1 entries; Start[U] == len(Cols).
	Start  []int32
	PosEnd []int32
	// Cols holds the non-abstain column indices of all rows, packed.
	Cols []uint16
	// RowOf maps each original example index to its distinct-row index, so
	// per-example quantities (posteriors, labels) can be recovered from
	// per-row ones without touching the original matrix.
	RowOf []int32
	// Voted[j] counts the examples on which LF j did not abstain, aggregated
	// over the whole matrix — the sufficient statistic for the propensity
	// parameters.
	Voted []int64
	// MajorityAgree[j] counts the examples on which LF j's vote matches the
	// example's unweighted majority vote (ties agree with nobody) — the
	// sufficient statistic for method-of-moments accuracy estimates and the
	// majority-vote baseline, aggregated here because the packing pass
	// already touches every distinct row.
	MajorityAgree []int64
	// Positives[j] counts the examples on which LF j voted positive,
	// Overlaps[j] those on which it voted and some other LF voted too, and
	// Conflicts[j] those on which some other LF voted the other way — the
	// development loop's statistics (lf.AnalyzeCompact), aggregated in the
	// same pass as Voted.
	Positives, Overlaps, Conflicts []int64

	// index finds a distinct row from its packed column lists (see lookup),
	// so an extension dedups appended rows without rebuilding anything.
	index []uint64
}

// NumUnique returns U, the number of distinct vote rows.
func (c *CompactMatrix) NumUnique() int { return len(c.Mult) }

// NumExamples returns m of the original matrix.
func (c *CompactMatrix) NumExamples() int { return c.m }

// NumFuncs returns n of the original matrix.
func (c *CompactMatrix) NumFuncs() int { return c.n }

// voteBad is the sentinel bit voteCode sets for bytes that are not legal
// votes.
const voteBad = 1 << 7

// voteCode maps a vote byte to its two-bit packed code (abstain → 0,
// positive → 1, negative → 3), with voteBad marking illegal bytes. The
// legal entries are an ordered slice, not a map literal: this table is the
// encoder's ground truth, and seeding it from a nondeterministically
// ordered range is exactly the class of bug drybellvet's determinism
// analyzer exists to stop (harmless here only because the keys are
// distinct — until someone edits the table).
var voteCode = func() (t [256]uint64) {
	for i := range t {
		t[i] = voteBad
	}
	for _, e := range []struct {
		label Label
		code  uint64
	}{{Abstain, 0}, {Positive, 1}, {Negative, 3}} {
		t[uint8(e.label)] = e.code //drybellvet:rawvote — seeding the encoder's own table
	}
	return
}()

// The row index is an open-addressed table over the distinct rows: slot
// entries hold a 32-bit tag of the row's hash above the row's index plus one,
// so the zero entry is an empty slot and a probe touches Cols only for a row
// whose tag matches. It travels with the compaction (CompactMatrix.index), so
// extending one hashes the appended rows and nothing else. It starts at
// rowIndexMinSlots and doubles once distinct rows fill seven tenths of it.
const rowIndexMinSlots = 1024

// hashCols is the row index's hash of a distinct row: its positive columns,
// then its negative ones, with the split between them mixed in.
func hashCols(pos, neg []uint16) uint32 {
	const mul = 0x9E3779B97F4A7C15
	h := uint64(len(pos))
	for _, j := range pos {
		h = (h ^ uint64(j)) * mul
		h ^= h >> 29
	}
	h = (h ^ uint64(len(neg))<<16) * mul
	for _, j := range neg {
		h = (h ^ uint64(j)) * mul
		h ^= h >> 29
	}
	h *= mul
	return uint32(h >> 32)
}

// lookup finds the distinct row whose packed lists are pos and neg. It
// returns the row, or -1 and the empty slot where the row's entry belongs.
func (c *CompactMatrix) lookup(tag uint32, pos, neg []uint16) (row int32, slot uint32) {
	mask := uint32(len(c.index) - 1)
	for slot = tag & mask; ; slot = (slot + 1) & mask {
		e := c.index[slot]
		if e == 0 {
			return -1, slot
		}
		if uint32(e>>32) != tag {
			continue
		}
		r := int32(uint32(e)) - 1
		start, mid, end := c.Start[r], c.PosEnd[r], c.Start[r+1]
		if int(mid-start) == len(pos) && int(end-mid) == len(neg) &&
			slices.Equal(c.Cols[start:mid], pos) && slices.Equal(c.Cols[mid:end], neg) {
			return r, slot
		}
	}
}

// growIndex doubles the table, moving entries in slot order: the layout stays
// a function of the distinct rows in first-seen order alone, whether one
// Compact or any number of extensions built it.
func (c *CompactMatrix) growIndex() {
	old := c.index
	c.index = make([]uint64, 2*len(old))
	mask := uint32(len(c.index) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		slot := uint32(e>>32) & mask
		for c.index[slot] != 0 {
			slot = (slot + 1) & mask
		}
		c.index[slot] = e
	}
}

// Compact deduplicates the matrix's rows through the row index, keyed by a
// hash of each row's packed column lists, at every width. Cost is one O(m·n)
// pass; every training pass over the result is O(U·n) instead.
// Compact panics on a matrix with out-of-range votes (use Validate first for
// data of unknown provenance); CompactChecked is the error-returning form a
// pipeline uses, which folds validation into the packing pass instead of
// re-scanning the matrix.
func (mx *Matrix) Compact() *CompactMatrix {
	c, err := mx.CompactChecked()
	if err != nil {
		panic(err.Error())
	}
	return c
}

// CompactChecked is ExtendCompact started from an empty compaction: every row
// of mx is an appended row, and an out-of-range vote is an error.
func (mx *Matrix) CompactChecked() (*CompactMatrix, error) {
	return ExtendCompact(&CompactMatrix{n: mx.n}, mx)
}

// ExtendCompact compacts only the appended rows of mx — rows
// [prev.NumExamples(), mx.NumExamples()) — against the distinct rows of prev,
// returning a new CompactMatrix over the whole of mx. prev is not mutated and
// remains valid, for any number of extensions. Distinct rows keep first-seen
// order, so the result equals a from-scratch Compact of mx field for field.
//
// The caller guarantees that rows [0, prev.NumExamples()) of mx are
// byte-identical to the matrix prev was compacted from; ExtendCompact cannot
// verify this without re-scanning the prefix, which would cost exactly the
// full compaction it exists to avoid. Corpora with deleted or rewritten rows
// must re-Compact from scratch (see TrainSamplingFreeFastWarm's nil-Compact
// path).
//
// Cost: one copy of prev's arrays and O(k·n) over the k appended rows, instead
// of O(m·n) over everything. No row of prev is hashed or compared again: the
// row index is copied with the arrays. Large k is split into CompactChunks(k)
// chunks (scanChunks), with the same result.
func ExtendCompact(prev *CompactMatrix, mx *Matrix) (*CompactMatrix, error) {
	return extendCompact(prev, mx, 0)
}

// extendCompact is ExtendCompact scanning the appended rows in the given
// number of chunks; 0 picks CompactChunks of the appended rows.
func extendCompact(prev *CompactMatrix, mx *Matrix, chunks int) (*CompactMatrix, error) {
	if prev == nil {
		return nil, fmt.Errorf("labelmodel: ExtendCompact with nil previous compaction")
	}
	if mx == nil {
		return nil, fmt.Errorf("labelmodel: ExtendCompact with nil matrix")
	}
	if mx.n != prev.n {
		return nil, fmt.Errorf("labelmodel: ExtendCompact: matrix has %d labeling functions, previous compaction has %d", mx.n, prev.n)
	}
	if mx.m < prev.m {
		return nil, fmt.Errorf("labelmodel: ExtendCompact: matrix has %d rows, fewer than the %d already compacted (deletions require a full re-Compact)", mx.m, prev.m)
	}
	if mx.n > 1<<16 {
		return nil, fmt.Errorf("labelmodel: Compact supports at most %d labeling functions, got %d", 1<<16, mx.n)
	}
	u, n, rows := len(prev.Mult), mx.n, mx.m-prev.m
	if chunks <= 0 {
		chunks = CompactChunks(rows)
	}
	// Copy what the appended rows grow or bump — sharing backing arrays would
	// corrupt prev for its other holders (the last training run's state).
	// Start keeps its sentinel: Start[r+1] ends row r throughout.
	c := &CompactMatrix{
		m:             mx.m,
		n:             n,
		Mult:          cloneWithRoom(prev.Mult, rows),
		Start:         cloneWithRoom(prev.Start, rows),
		PosEnd:        cloneWithRoom(prev.PosEnd, rows),
		Cols:          cloneWithRoom(prev.Cols, rows*n),
		RowOf:         make([]int32, mx.m),
		Voted:         make([]int64, n),
		MajorityAgree: make([]int64, n),
		Positives:     make([]int64, n),
		Overlaps:      make([]int64, n),
		Conflicts:     make([]int64, n),
		index:         slices.Clone(prev.index),
	}
	copy(c.RowOf, prev.RowOf)
	if u == 0 {
		c.Start = []int32{0}
		c.index = make([]uint64, rowIndexMinSlots)
	}
	if err := c.scanChunks(mx, prev.m, chunks); err != nil {
		return nil, err
	}

	// Per-LF counts aggregate over distinct rows and the multiplicities this
	// call added to them, on top of prev's counts — integer sums, so the
	// result does not depend on how many Extend steps built the compaction,
	// and an extension visits only the rows it touched.
	copy(c.Voted, prev.Voted)
	copy(c.MajorityAgree, prev.MajorityAgree)
	copy(c.Positives, prev.Positives)
	copy(c.Overlaps, prev.Overlaps)
	copy(c.Conflicts, prev.Conflicts)
	for r := range c.Mult {
		mult := int64(c.Mult[r])
		if r < u {
			mult -= int64(prev.Mult[r])
		}
		if mult == 0 {
			continue
		}
		pos := c.Cols[c.Start[r]:c.PosEnd[r]]
		neg := c.Cols[c.PosEnd[r]:c.Start[r+1]]
		// Each is mult or 0 for every vote of one sign in the row.
		overlap := mult * int64(b2i(len(pos)+len(neg) > 1))
		posAgree, posConflict := mult*int64(b2i(len(pos) > len(neg))), mult*int64(b2i(len(neg) > 0))
		negAgree, negConflict := mult*int64(b2i(len(neg) > len(pos))), mult*int64(b2i(len(pos) > 0))
		for _, j := range pos {
			c.Voted[j] += mult
			c.Positives[j] += mult
			c.MajorityAgree[j] += posAgree
			c.Overlaps[j] += overlap
			c.Conflicts[j] += posConflict
		}
		for _, j := range neg {
			c.Voted[j] += mult
			c.MajorityAgree[j] += negAgree
			c.Overlaps[j] += overlap
			c.Conflicts[j] += negConflict
		}
	}
	return c, nil
}

// compactChunkRows is the fewest appended rows a chunk of a split compaction
// gets: smaller matrices, an incremental round's among them, stay serial.
const compactChunkRows = 16_384

// CompactChunks is how many chunks ExtendCompact splits rows appended rows
// into: one per compactChunkRows, at most par.Procs(), at least one. Any count
// gives the same compaction (TestCompactChunksAgree), so it may follow the host.
func CompactChunks(rows int) int {
	return max(1, min(par.Procs(), rows/compactChunkRows))
}

// scanChunks scans rows [lo, m) of mx into c as a GROUP BY over contiguous
// chunks: chunk 0 extends c while each later chunk compacts on its own,
// writing chunk-local ids into its range of RowOf, and is then merged into c
// in chunk order — so distinct rows enter c in first-seen order, as in one
// scan, and the lowest chunk's error names the lowest bad row.
func (c *CompactMatrix) scanChunks(mx *Matrix, lo, chunks int) error {
	bound := func(k int) int { return lo + k*(mx.m-lo)/chunks }
	parts := []*CompactMatrix{c}
	for range chunks - 1 {
		parts = append(parts, &CompactMatrix{n: c.n, Start: []int32{0}, index: make([]uint64, rowIndexMinSlots)})
	}
	if err := par.Each(chunks, chunks, func(k int) error {
		return parts[k].scan(mx, bound(k), bound(k+1), c.RowOf)
	}); err != nil {
		return err
	}
	for k := 1; k < chunks; k++ {
		c.merge(parts[k], c.RowOf[bound(k):bound(k+1)])
	}
	return nil
}

// scan deduplicates rows [lo, hi) of mx against c's distinct rows, adding the
// new ones and counting every row's multiplicity, and writes row i's
// distinct-row id to rowOf[i]. It stops at the first row holding an
// out-of-range vote.
func (c *CompactMatrix) scan(mx *Matrix, lo, hi int, rowOf []int32) error {
	n := mx.n
	// lists holds one row's positive columns from 0 and its negative ones
	// from n. Column lists are packed the moment a fresh row pattern is seen,
	// so the scan is one pass over the rows plus O(U·n̄) work on first
	// encounters only.
	lists := make([]uint16, 2*n)
	for i := lo; i < hi; i++ {
		// Every column is stored to both lists and kept only where its vote
		// advances that list's length — positive is code 1, negative code 3 —
		// so the scan has no branch to mispredict on votes that are mostly,
		// but unpredictably, abstains. The codes tag out-of-range bytes with a
		// sentinel bit: one validity branch per row.
		row := mx.data[i*n : (i+1)*n]
		var np, nn int
		var bad uint64
		for j, v := range row {
			code := voteCode[uint8(v)] //drybellvet:rawvote — indexing the encoder's table
			bad |= code
			lists[np], lists[n+nn] = uint16(j), uint16(j)
			np += int(code & ^(code >> 1) & 1)
			nn += int(code >> 1 & 1)
		}
		if bad&voteBad != 0 {
			return invalidLabel(row, i)
		}
		pos, neg := lists[:np], lists[n:n+nn]
		r := c.insert(hashCols(pos, neg), pos, neg)
		c.Mult[r]++
		rowOf[i] = r
	}
	return nil
}

// merge folds part, a chunk compacted on its own, into c: each of its
// distinct rows in order is found in c by its tag or appended, and rowOf, the
// chunk's rows' ids in part, is remapped to ids in c.
func (c *CompactMatrix) merge(part *CompactMatrix, rowOf []int32) {
	// ids[r] is row r's tag, read off part's index, until r is placed.
	ids := make([]uint32, len(part.Mult))
	for _, e := range part.index {
		if e != 0 {
			ids[uint32(e)-1] = uint32(e >> 32)
		}
	}
	for r, tag := range ids {
		pos := part.Cols[part.Start[r]:part.PosEnd[r]]
		neg := part.Cols[part.PosEnd[r]:part.Start[r+1]]
		to := c.insert(tag, pos, neg)
		c.Mult[to] += part.Mult[r]
		ids[r] = uint32(to)
	}
	for i, r := range rowOf {
		rowOf[i] = int32(ids[r])
	}
}

// insert returns the distinct row whose packed lists are pos and neg, first
// appending it with multiplicity 0 when c has no such row.
func (c *CompactMatrix) insert(tag uint32, pos, neg []uint16) int32 {
	r, slot := c.lookup(tag, pos, neg)
	if r >= 0 {
		return r
	}
	r = int32(len(c.Mult))
	c.index[slot] = uint64(tag)<<32 | uint64(r+1)
	c.Mult = append(grow(c.Mult, 1), 0)
	c.Cols = append(grow(c.Cols, len(pos)+len(neg)), pos...)
	c.PosEnd = append(grow(c.PosEnd, 1), int32(len(c.Cols)))
	c.Cols = append(c.Cols, neg...)
	c.Start = append(grow(c.Start, 1), int32(len(c.Cols)))
	if len(c.Mult)*10 >= len(c.index)*7 {
		c.growIndex()
	}
	return r
}

// cloneWithRoom copies s with room for min(extra, len(s)) more elements: a
// first doubling's room, capped by what the appended rows can use.
func cloneWithRoom[S ~[]E, E any](s S, extra int) S {
	return append(make(S, 0, len(s)+min(extra, len(s))), s...)
}

// grow returns s with room for extra more elements, doubling its capacity
// when it moves (append's 1.25× step copies large arrays many times over).
func grow[S ~[]E, E any](s S, extra int) S {
	if len(s)+extra <= cap(s) {
		return s
	}
	t := make(S, len(s), max(2*cap(s), len(s)+extra, 64))
	copy(t, s)
	return t
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// invalidLabel names the first out-of-range vote in row i.
func invalidLabel(row []Label, i int) error {
	for j, v := range row {
		if !v.Valid() {
			return fmt.Errorf("labelmodel: invalid label %d at row %d column %d", v, i, j)
		}
	}
	return nil
}
