package lf

import (
	"fmt"

	"repro/internal/dfs"
	"repro/internal/labelmodel"
)

// This file is the test-only reference the one vote-store reader (planVotes
// + scan) is held to: the cell-by-cell, view-per-generation assembly the
// store was read with before there was one reader. It shares no code with
// the reader beyond the on-disk format helpers it needs to find the bytes.

// HasGenerations reports whether any vote generation — a generation-0
// segment or a delta — is published at base.
func HasGenerations(fs dfs.FS, base string) bool {
	keys, _, err := listKeys(fs, base, true)
	return err == nil && len(keys) > 0
}

// VoteNames returns the store's column union, as the plan of its whole chain
// orders it.
func VoteNames(fs dfs.FS, base string) ([]string, error) {
	p, err := planVotes(fs, base, true, nil)
	if err != nil {
		return nil, err
	}
	return p.names, nil
}

// oracleReadSegment decodes one columnar shard set into a matrix in stored
// column order, cell by cell, trusting the bytes (the oracle only ever reads
// stores the tests wrote intact).
func oracleReadSegment(fs dfs.FS, base string) (*labelmodel.Matrix, []string, error) {
	rec, err := dfs.ReadRecord(fs, base)
	if err != nil {
		return nil, nil, err
	}
	n, nsh := len(rec.Names), len(rec.Shards)
	mx := labelmodel.NewMatrix(rec.Rows, n)
	for s := 0; s < nsh; s++ {
		data, err := fs.ReadFile(dfs.ShardPath(base, s, nsh))
		if err != nil {
			return nil, nil, err
		}
		payload := data[voteShardHeaderSize:]
		for k := 0; k*n < len(payload); k++ {
			for j := 0; j < n; j++ {
				mx.Set(s+k*nsh, j, labelmodel.Label(int8(payload[k*n+j])))
			}
		}
	}
	return mx, rec.Names, nil
}

// mergeVotesAt is the row-range merge the store's readers used to share:
// fresh votes covering rows [startRow, startRow+k) of the view supersede the
// old matrix column-wise — columns the fresh matrix carries are overwritten
// inside the range, columns it lacks keep their old votes — while rows
// outside the range pass through unchanged and the view grows to cover
// appended rows. New columns join the union after the existing ones,
// Abstain-filled wherever they never voted. old may be nil (empty view).
func mergeVotesAt(old *labelmodel.Matrix, oldNames []string, mx *labelmodel.Matrix, names []string, startRow int) (*labelmodel.Matrix, []string) {
	oldRows := 0
	if old != nil {
		oldRows = old.NumExamples()
	}
	total := oldRows
	if end := startRow + mx.NumExamples(); end > total {
		total = end
	}
	oldIdx := make(map[string]int, len(oldNames))
	for j, name := range oldNames {
		oldIdx[name] = j
	}
	mergedNames := append([]string(nil), oldNames...)
	fresh := make(map[string]int, len(names))
	for j, name := range names {
		fresh[name] = j
		if _, ok := oldIdx[name]; !ok {
			mergedNames = append(mergedNames, name)
		}
	}
	merged := labelmodel.NewMatrix(total, len(mergedNames))
	end := startRow + mx.NumExamples()
	for k, name := range mergedNames {
		fj, inFresh := fresh[name]
		oj, inOld := oldIdx[name]
		for i := 0; i < total; i++ {
			switch {
			case inFresh && i >= startRow && i < end:
				merged.Set(i, k, mx.At(i-startRow, fj))
			case inOld && i < oldRows:
				merged.Set(i, k, old.At(i, oj))
			}
		}
	}
	return merged, mergedNames
}

// oracleReadVersioned assembles the compacted view the old way: read each
// segment whole, re-merge the full view once per generation, then subset the
// surviving rows and the requested columns. Generation-0 segments are read by
// their keys and merged over base rows [0, m), after the flat artifact and
// before the deltas.
func oracleReadVersioned(fs dfs.FS, base string, names []string) (*labelmodel.Matrix, []string, error) {
	keys, _, err := listKeys(fs, base, true)
	if err != nil {
		return nil, nil, err
	}
	var view *labelmodel.Matrix
	var union []string
	total := 0
	if _, err := fs.Stat(dfs.RecordPath(base)); err == nil {
		if view, union, err = oracleReadSegment(fs, base); err != nil {
			return nil, nil, err
		}
		total = view.NumExamples()
	}
	deleted := make(map[int]bool)
	for _, k := range keys {
		g, err := dfs.ReadRecord(fs, k.path(base))
		if err != nil {
			return nil, nil, err
		}
		if g.StartRow > total {
			return nil, nil, fmt.Errorf("oracle: generation %v starts at row %d, beyond %d", k, g.StartRow, total)
		}
		if g.Rows > 0 {
			mx, gnames, err := oracleReadSegment(fs, k.path(base))
			if err != nil {
				return nil, nil, err
			}
			view, union = mergeVotesAt(view, union, mx, gnames, g.StartRow)
			total = view.NumExamples()
			for i := g.StartRow; i < g.StartRow+g.Rows; i++ {
				delete(deleted, i)
			}
		}
		for _, d := range g.Deleted {
			if d >= total {
				return nil, nil, fmt.Errorf("oracle: generation %v tombstones row %d, beyond %d", k, d, total)
			}
			deleted[d] = true
		}
	}
	if view == nil {
		return nil, nil, fmt.Errorf("oracle: no vote rows at %s", base)
	}
	if len(deleted) > 0 {
		live := make([]int, 0, total-len(deleted))
		for i := 0; i < total; i++ {
			if !deleted[i] {
				live = append(live, i)
			}
		}
		view = view.SubsetRows(live)
	}
	if names == nil {
		return view, union, nil
	}
	colOf := make(map[string]int, len(union))
	for j, n := range union {
		colOf[n] = j
	}
	sel := make([]int, len(names))
	for j, n := range names {
		c, ok := colOf[n]
		if !ok {
			return nil, nil, fmt.Errorf("oracle: no column for %q (stored: %v)", n, union)
		}
		sel[j] = c
	}
	return view.SubsetColumns(sel), names, nil
}
