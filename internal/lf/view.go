// A carried view of the vote store: semi-naive evaluation for LoadMatrix.
//
// The merged view is a relation derived from the store; a reader that keeps it
// between reads — with a watermark saying exactly what it merged — joins only
// the generations published since into it instead of re-deriving it. LoadView
// plans the chain from metadata as every read does, and when the watermark is
// a prefix of that plan and everything after it is a pure append, it streams
// only the newer segments, through the same scan and the same stored-byte
// checks, onto the end of the view. Anything else rebuilds the view from the
// store, exactly as LoadMatrix would. A batch execution is the round that
// starts from the empty relation: it hands back the matrix it published as a
// view of the generation-0 segment it appended, so the first delta round after
// it reads only the delta.
package lf

import (
	"fmt"
	"slices"

	"repro/internal/dfs"
	"repro/internal/labelmodel"
)

// View is a merged read of the vote store at base — or the matrix a batch
// execution just published there (ExecuteContext) — that the next read can
// start from. Matrix and Names are LoadMatrix's result and must not be
// written to: a later view shares the matrix's rows. A view whose watermark
// is empty claims to have merged nothing, which its rows contradict, so it is
// never carried.
type View struct {
	Matrix *labelmodel.Matrix
	// Names are the matrix's columns, as requested from LoadView.
	Names []string
	// flat is the merged flat artifact's record checksum (0 without one) and
	// gens the generations folded over it — generation-0 segments, then
	// deltas — in order: the watermark. A store whose plan does not start
	// with exactly these holds something the matrix has not seen.
	flat uint32
	gens []genMark
}

// genMark identifies one merged generation: its number (0 for a
// generation-0 segment) and its commit record's checksum, which covers its
// columns, rows, shard digests, row range and tombstones.
type genMark struct {
	gen int
	crc uint32
}

// Why LoadView could not carry the previous view, as ViewRead.Rebuilt and the
// pipeline_incremental_view_rebuilds_total reason label.
const (
	RebuiltNoState        = "no_state"        // no previous view was supplied
	RebuiltFlatChanged    = "flat_changed"    // another flat artifact stands at the base
	RebuiltChainChanged   = "chain_changed"   // the merged generations are not a prefix of the chain
	RebuiltColumnsChanged = "columns_changed" // other labeling functions, or another order
	RebuiltRewrite        = "rewrite"         // a newer generation rewrites or tombstones rows
)

// ViewRead is what one LoadView did.
type ViewRead struct {
	// Rebuilt is why the previous view could not be carried and the whole
	// store was read (one of the Rebuilt* reasons); empty when it was.
	Rebuilt string
	// Segments and Rows count the stored segments and vote rows streamed.
	Segments, Rows int
}

// LoadView is LoadMatrix for a reader that keeps its result: it returns the
// merged view of the store at base with column j holding names[j], reading
// only the generations published since prev when prev can be carried (see the
// file comment) and the whole store otherwise — a nil prev, other names, or a
// store that changed under the watermark in any way but growing at its end.
// The view equals a fresh read field for field either way. prev is left
// valid, but shares its rows with the result.
func LoadView(fs dfs.FS, base string, names []string, prev *View) (*View, ViewRead, error) {
	if len(names) == 0 {
		return nil, ViewRead{}, fmt.Errorf("lf: no labeling function names to load")
	}
	p, err := planVotes(fs, base, true, names)
	if err != nil {
		return nil, ViewRead{}, err
	}
	next := p.view(nil)
	read := ViewRead{Rebuilt: prev.staleFor(p)}
	carried := read.Rebuilt == ""
	if carried {
		// The watermark is a prefix of the plan: stream what lies past it.
		if len(p.gens) == len(prev.gens) {
			return prev, read, nil
		}
		p.segments = p.segments[len(p.segments)-len(p.gens)+len(prev.gens):]
	}
	read.Segments = len(p.segments)
	for _, seg := range p.segments {
		read.Rows += seg.rec.Rows
	}
	if carried {
		if err = p.statShards(fs); err == nil {
			next.Matrix = prev.Matrix.Grown(p.chain.Live() - prev.Matrix.NumExamples())
			err = p.scan(fs, next.Matrix)
		}
	} else {
		next.Matrix, _, err = p.read(fs)
	}
	if err != nil {
		return nil, read, err
	}
	return next, read, nil
}

// staleFor reports why v cannot be carried into a read of plan p, or "" when
// it can: p's columns are v's, p starts with exactly what v merged, and every
// generation after that appends rows at the chain's end.
func (v *View) staleFor(p *votePlan) string {
	switch {
	case v == nil:
		return RebuiltNoState
	case !slices.Equal(v.Names, p.names):
		return RebuiltColumnsChanged
	case v.flat != p.flat:
		return RebuiltFlatChanged
	case len(v.gens) > len(p.gens):
		return RebuiltChainChanged
	}
	rows := v.Matrix.NumExamples()
	for i, g := range p.gens {
		switch {
		case i < len(v.gens) && g.genMark != v.gens[i]:
			return RebuiltChainChanged
		case i >= len(v.gens) && !g.appended:
			return RebuiltRewrite
		case i >= len(v.gens):
			rows += g.rows
		}
	}
	if rows != p.chain.Live() {
		return RebuiltChainChanged // the watermark matched a store the rows do not
	}
	return ""
}
