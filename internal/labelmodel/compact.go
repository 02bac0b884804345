package labelmodel

import (
	"fmt"
	"sync"
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
}

// NumUnique returns U, the number of distinct vote rows.
func (c *CompactMatrix) NumUnique() int { return len(c.Mult) }

// NumExamples returns m of the original matrix.
func (c *CompactMatrix) NumExamples() int { return c.m }

// NumFuncs returns n of the original matrix.
func (c *CompactMatrix) NumFuncs() int { return c.n }

// PosCount returns the number of positive votes in distinct row r.
func (c *CompactMatrix) PosCount(r int) int { return int(c.PosEnd[r] - c.Start[r]) }

// NegCount returns the number of negative votes in distinct row r.
func (c *CompactMatrix) NegCount(r int) int { return int(c.Start[r+1] - c.PosEnd[r]) }

// RowVotes reconstructs distinct row r as a dense vote slice.
func (c *CompactMatrix) RowVotes(r int) []Label {
	row := make([]Label, c.n)
	for _, j := range c.Cols[c.Start[r]:c.PosEnd[r]] {
		row[j] = Positive
	}
	for _, j := range c.Cols[c.PosEnd[r]:c.Start[r+1]] {
		row[j] = Negative
	}
	return row
}

// Reconstruct rebuilds the original m×n matrix from the compact form using
// the RowOf mapping. Compact followed by Reconstruct is the identity.
func (c *CompactMatrix) Reconstruct() *Matrix {
	mx := NewMatrix(c.m, c.n)
	for i, r := range c.RowOf {
		dst := mx.data[i*c.n : (i+1)*c.n]
		for _, j := range c.Cols[c.Start[r]:c.PosEnd[r]] {
			dst[j] = Positive
		}
		for _, j := range c.Cols[c.PosEnd[r]:c.Start[r+1]] {
			dst[j] = Negative
		}
	}
	return mx
}

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

// rowTable is a minimal open-addressed hash table from packed row keys to
// distinct-row indices. vals[slot] < 0 marks an empty slot, so every uint64
// (including 0, the all-abstain row) is a legal key.
type rowTable struct {
	keys []uint64
	vals []int32
	used int
	mask uint64
}

// rowHash mixes a packed row key so its high entropy reaches the low slot
// bits (Fibonacci hashing with a fold).
func rowHash(key uint64) uint64 {
	h := key * 0x9E3779B97F4A7C15
	return h>>29 ^ h
}

// rowTablePool recycles tables across Compact calls: the table is the
// largest allocation of a training run, and the GC pressure of remaking it
// per call is measurable on the trainer benchmark.
var rowTablePool sync.Pool

func newRowTable(hint int) *rowTable {
	// Sized so that typical compaction ratios (U around m/4 or better) never
	// rehash mid-stream; pathological all-unique inputs still grow correctly.
	size := 1024
	for size < hint/2 {
		size <<= 1
	}
	if t, _ := rowTablePool.Get().(*rowTable); t != nil && len(t.keys) >= size {
		for i := range t.vals {
			t.vals[i] = -1
		}
		t.used = 0
		return t
	}
	t := &rowTable{keys: make([]uint64, size), vals: make([]int32, size), mask: uint64(size - 1)}
	for i := range t.vals {
		t.vals[i] = -1
	}
	return t
}

// release returns the table to the pool for the next Compact call.
func (t *rowTable) release() { rowTablePool.Put(t) }

// insert returns the value for key, storing val for a fresh key; fresh
// reports whether the key was new.
func (t *rowTable) insert(key uint64, val int32) (int32, bool) {
	if t.used*10 >= len(t.keys)*7 {
		t.grow()
	}
	slot := rowHash(key) & t.mask
	for {
		if v := t.vals[slot]; v < 0 {
			t.keys[slot] = key
			t.vals[slot] = val
			t.used++
			return val, true
		} else if t.keys[slot] == key {
			return v, false
		}
		slot = (slot + 1) & t.mask
	}
}

func (t *rowTable) grow() {
	old := *t
	size := len(old.keys) * 2
	t.keys = make([]uint64, size)
	t.vals = make([]int32, size)
	t.mask = uint64(size - 1)
	for i := range t.vals {
		t.vals[i] = -1
	}
	for i, v := range old.vals {
		if v < 0 {
			continue
		}
		key := old.keys[i]
		slot := rowHash(key) & t.mask
		for t.vals[slot] >= 0 {
			slot = (slot + 1) & t.mask
		}
		t.keys[slot] = key
		t.vals[slot] = v
	}
}

// Compact deduplicates the matrix's rows. Matrices with up to 32 labeling
// functions pack each row into one uint64 key (two bits per vote); wider
// matrices fall back to string keys. Cost is one O(m·n) pass; every training
// pass over the result is O(U·n) instead. Compact panics on a matrix with
// out-of-range votes (use Validate first for data of unknown provenance);
// compactChecked is the error-returning form the trainers use, which folds
// validation into the packing pass instead of re-scanning the matrix.
func (mx *Matrix) Compact() *CompactMatrix {
	c, err := mx.compactChecked()
	if err != nil {
		panic(err.Error())
	}
	return c
}

// compactChecked is ExtendCompact started from an empty compaction: every row
// of mx is an appended row.
func (mx *Matrix) compactChecked() (*CompactMatrix, error) {
	return ExtendCompact(&CompactMatrix{n: mx.n}, mx)
}

// ExtendCompact compacts only the appended rows of mx — rows
// [prev.NumExamples(), mx.NumExamples()) — against the distinct-row table of
// prev, returning a new CompactMatrix over the whole of mx. prev is not
// mutated and remains valid. Distinct rows keep first-seen order, so the
// result equals a from-scratch Compact of mx field for field.
//
// The caller guarantees that rows [0, prev.NumExamples()) of mx are
// byte-identical to the matrix prev was compacted from; ExtendCompact cannot
// verify this without re-scanning the prefix, which would cost exactly the
// full compaction it exists to avoid. Corpora with deleted or rewritten rows
// must re-Compact from scratch (see TrainSamplingFreeFastWarm's nil-Compact
// path).
//
// Cost: O(U·n) to rebuild the key table from prev's distinct rows and to
// aggregate the per-LF counts, plus O(k·n) over the k appended rows, instead
// of O(m·n) over everything.
func ExtendCompact(prev *CompactMatrix, mx *Matrix) (*CompactMatrix, error) {
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
	// Copy what the appended rows grow — sharing backing arrays would corrupt
	// prev for its other holders (the last training run's state). Start drops
	// its U+1'th sentinel entry while rows append and gets it back at the end.
	u := len(prev.Mult)
	c := &CompactMatrix{
		m:             mx.m,
		n:             mx.n,
		Mult:          append([]int32(nil), prev.Mult...),
		Start:         append([]int32(nil), prev.Start[:u]...),
		PosEnd:        append([]int32(nil), prev.PosEnd...),
		Cols:          append([]uint16(nil), prev.Cols...),
		RowOf:         make([]int32, mx.m),
		Voted:         make([]int64, mx.n),
		MajorityAgree: make([]int64, mx.n),
	}
	copy(c.RowOf, prev.RowOf)
	// Column lists are packed the moment a fresh row pattern is seen, so
	// the whole compaction is one pass over the appended rows plus O(U·n̄)
	// work on first encounters only.
	appendCols := func(row []Label) {
		c.Start = append(c.Start, int32(len(c.Cols)))
		for j, v := range row {
			if v == Positive {
				c.Cols = append(c.Cols, uint16(j))
			}
		}
		c.PosEnd = append(c.PosEnd, int32(len(c.Cols)))
		for j, v := range row {
			if v == Negative {
				c.Cols = append(c.Cols, uint16(j))
			}
		}
	}
	if mx.n <= 32 {
		// Open-addressed table instead of a Go map: row deduplication is the
		// whole cost of Compact, and the custom probe loop is several times
		// faster than map inserts on this hot path.
		tab := newRowTable(u + mx.m - prev.m)
		defer tab.release()
		// Seed the table from the previous distinct rows so appended
		// duplicates of known patterns resolve to their existing indices.
		for r := 0; r < u; r++ {
			var key uint64
			for _, j := range prev.Cols[prev.Start[r]:prev.PosEnd[r]] {
				key |= 1 << (2 * uint(j))
			}
			for _, j := range prev.Cols[prev.PosEnd[r]:prev.Start[r+1]] {
				key |= 3 << (2 * uint(j))
			}
			tab.insert(key, int32(r))
		}
		for i := prev.m; i < mx.m; i++ {
			var key, bad uint64
			row := mx.data[i*mx.n : (i+1)*mx.n]
			// Two bits per vote: abstain → 0, positive → 1, negative → 3,
			// via a lookup that tags out-of-range bytes with a sentinel bit
			// — branch-free per element, one validity branch per row.
			// Independent shift-or terms, so the packing pipelines instead
			// of serializing on one accumulator.
			for j, v := range row {
				code := voteCode[uint8(v)] //drybellvet:rawvote — indexing the encoder's table
				bad |= code
				key |= (code & 3) << (2 * uint(j))
			}
			if bad&voteBad != 0 {
				for j, v := range row {
					if v < Negative || v > Positive {
						return nil, fmt.Errorf("labelmodel: invalid label %d at row %d column %d", v, i, j)
					}
				}
			}
			r, fresh := tab.insert(key, int32(len(c.Mult)))
			if fresh {
				c.Mult = append(c.Mult, 0)
				appendCols(row)
			}
			c.Mult[r]++
			c.RowOf[i] = r
		}
	} else {
		buf := make([]byte, mx.n)
		seen := make(map[string]int32, u+(mx.m-prev.m)/4+16)
		for r := 0; r < u; r++ {
			if err := EncodeVotes(buf, prev.RowVotes(r)); err != nil {
				return nil, fmt.Errorf("labelmodel: previous compaction row %d: %w", r, err)
			}
			seen[string(buf)] = int32(r)
		}
		for i := prev.m; i < mx.m; i++ {
			row := mx.data[i*mx.n : (i+1)*mx.n]
			if err := EncodeVotes(buf, row); err != nil {
				return nil, fmt.Errorf("labelmodel: row %d: %w", i, err)
			}
			r, ok := seen[string(buf)]
			if !ok {
				r = int32(len(c.Mult))
				seen[string(buf)] = r
				c.Mult = append(c.Mult, 0)
				appendCols(row)
			}
			c.Mult[r]++
			c.RowOf[i] = r
		}
	}
	c.Start = append(c.Start, int32(len(c.Cols)))

	// Per-LF vote and majority-agreement counts aggregate over distinct
	// rows and multiplicities — integer sums, so the result does not depend
	// on how many Extend steps built the compaction.
	for r := range c.Mult {
		mult := int64(c.Mult[r])
		pos := c.Cols[c.Start[r]:c.PosEnd[r]]
		neg := c.Cols[c.PosEnd[r]:c.Start[r+1]]
		maj := len(pos) - len(neg)
		for _, j := range pos {
			c.Voted[j] += mult
			if maj > 0 {
				c.MajorityAgree[j] += mult
			}
		}
		for _, j := range neg {
			c.Voted[j] += mult
			if maj < 0 {
				c.MajorityAgree[j] += mult
			}
		}
	}
	return c, nil
}
