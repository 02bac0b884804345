package drybell_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/pkg/drybell"
)

// wordDocs draws n documents whose three keywords occur independently and at
// unequal rates, so the keyword functions disagree, cover different shares of
// the corpus, and their columns cannot be swapped unnoticed.
func wordDocs(rng *rand.Rand, firstID, n int) []doc {
	docs := make([]doc, n)
	for i := range docs {
		var words []string
		for _, w := range []struct {
			word string
			rate float64
		}{{"gossip", 0.5}, {"redcarpet", 0.3}, {"infrastructure", 0.7}, {"budget", 0.2}} {
			if rng.Float64() < w.rate {
				words = append(words, w.word)
			}
		}
		docs[i] = doc{ID: firstID + i, Text: "report: " + strings.Join(words, " ")}
	}
	return docs
}

// requireSameRound compares what two rounds over the same store concluded:
// the view, the model and the labels, bit for bit.
func requireSameRound(t *testing.T, what string, got, want *drybell.IncrementalResult) {
	t.Helper()
	if got.Matrix.NumExamples() != want.Matrix.NumExamples() || got.Matrix.NumFuncs() != want.Matrix.NumFuncs() {
		t.Fatalf("%s: view %d×%d, want %d×%d", what, got.Matrix.NumExamples(), got.Matrix.NumFuncs(),
			want.Matrix.NumExamples(), want.Matrix.NumFuncs())
	}
	for i := 0; i < want.Matrix.NumExamples(); i++ {
		if !slices.Equal(got.Matrix.Row(i), want.Matrix.Row(i)) {
			t.Fatalf("%s: view row %d = %v, want %v", what, i, got.Matrix.Row(i), want.Matrix.Row(i))
		}
	}
	requireSameFloats(t, what+": alpha", got.Model.Alpha, want.Model.Alpha)
	requireSameFloats(t, what+": beta", got.Model.Beta, want.Model.Beta)
	requireSameFloats(t, what+": posteriors", got.Posteriors, want.Posteriors)
}

func requireSameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	diff := 0
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			diff++
		}
	}
	if diff > 0 {
		t.Fatalf("%s: %d of %d differ (got %.4v, want %.4v)", what, diff, len(want), got[:min(len(got), 4)], want[:min(len(want), 4)])
	}
}

// TestCarriedStateChecksItsColumns: the state a Pipeline carries describes
// columns in one order. Handed another function list of the same length — the
// same functions reversed, or one of them replaced — the next round used to
// extend the old compaction anyway (only the column count was compared) and
// trained on a matrix whose earlier rows were read in the old order: 444 of
// 600 labels off, silently. The carried state records its column names; a
// mismatch rebuilds, and the round equals what a Pipeline without state
// computes over the same store.
func TestCarriedStateChecksItsColumns(t *testing.T) {
	ctx := context.Background()
	docs := wordDocs(rand.New(rand.NewSource(3)), 0, 600)
	lfs := testRunners()
	reversed := []drybell.LF[doc]{lfs[2], lfs[1], lfs[0]}
	replaced := []drybell.LF[doc]{lfs[0], keywordLF("kw_budget", "budget", drybell.Negative), lfs[2]}

	for _, tc := range []struct {
		name   string
		second []drybell.LF[doc]
		// cold: a Run over the grown corpus with the second list is a
		// reference too (not when a function joins late: it has no votes on
		// the rows executed before it).
		cold bool
	}{
		{"reordered", reversed, true},
		{"one replaced", replaced, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPipeline(t)
			if _, err := p.Run(ctx, drybell.SliceSource(docs[:500]), lfs); err != nil {
				t.Fatal(err)
			}
			if _, err := p.StageDelta(ctx, drybell.SliceSource(docs[500:550])); err != nil {
				t.Fatal(err)
			}
			first, err := p.IncrementalRun(ctx, lfs)
			if err != nil {
				t.Fatal(err)
			}
			if first.ViewRebuilt != "" {
				t.Fatalf("first round: view rebuilt for %q, want it carried from Run", first.ViewRebuilt)
			}
			if _, err := p.StageDelta(ctx, drybell.SliceSource(docs[550:])); err != nil {
				t.Fatal(err)
			}
			got, err := p.IncrementalRun(ctx, tc.second)
			if err != nil {
				t.Fatal(err)
			}
			if got.ViewRebuilt != "columns_changed" {
				t.Errorf("round under other columns: view rebuilt for %q, want columns_changed", got.ViewRebuilt)
			}

			// A Pipeline without state, over the same store.
			fresh, err := newPipeline(t, drybell.WithFS(p.FS())).IncrementalRun(ctx, tc.second)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRound(t, "against a Pipeline without state", got, fresh)
			if tc.cold {
				cold, err := newPipeline(t).Run(ctx, drybell.SliceSource(docs), tc.second)
				if err != nil {
					t.Fatal(err)
				}
				requireSameFloats(t, "against a cold Run: alpha", got.Model.Alpha, cold.Model.Alpha)
				requireSameFloats(t, "against a cold Run: posteriors", got.Posteriors, cold.Posteriors)
			}

			// And the state it then carries is the second list's.
			again, err := p.IncrementalRun(ctx, tc.second)
			if err != nil {
				t.Fatal(err)
			}
			if again.ViewRebuilt != "" {
				t.Errorf("caught-up round under the same columns rebuilt the view (%s)", again.ViewRebuilt)
			}
			requireSameRound(t, "caught-up round", again, got)
		})
	}
}

// TestCarriedRoundsMatchRebuiltAndCold is carried ≡ rebuilt ≡ cold on
// generated schedules: one Pipeline follows a corpus through random appends,
// rewrites, tombstones, compactions and rounds a second Pipeline runs behind
// its back. After every round, what it computed from its carried state must
// equal, bit for bit, what a Pipeline without state computes over the same
// store, and the labels on the filesystem must be those; the view must have
// been carried exactly when the store only grew at its end; and at the end a
// cold Run over the surviving documents must agree too.
func TestCarriedRoundsMatchRebuiltAndCold(t *testing.T) {
	ctx := context.Background()
	lfs := testRunners()
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nextID := 0
			draw := func(n int) []doc {
				docs := wordDocs(rng, nextID, n)
				nextID += n
				return docs
			}
			// rows mirrors the store's absolute rows since the last
			// compaction; a nil entry is a tombstone.
			var rows []*doc
			add := func(at int, docs []doc) {
				for i := range docs {
					if at+i == len(rows) {
						rows = append(rows, nil)
					}
					rows[at+i] = &docs[i]
				}
			}
			live := func() []doc {
				var docs []doc
				for _, d := range rows {
					if d != nil {
						docs = append(docs, *d)
					}
				}
				return docs
			}

			p := newPipeline(t)
			rival := newPipeline(t, drybell.WithFS(p.FS()))
			base := draw(300)
			if _, err := p.Run(ctx, drybell.SliceSource(base), lfs); err != nil {
				t.Fatal(err)
			}
			add(0, base)

			carrying := true // p holds a view of everything executed so far: Run handed it one
			for step := 0; step < 14; step++ {
				what := fmt.Sprintf("step %d", step)
				wantCarried := carrying
				switch op := rng.Intn(10); {
				case op < 5: // append
					docs := draw(5 + rng.Intn(40))
					if _, err := p.StageDelta(ctx, drybell.SliceSource(docs)); err != nil {
						t.Fatalf("%s: StageDelta: %v", what, err)
					}
					add(len(rows), docs)
					what += " append"
				case op == 5: // rewrite, possibly past the end
					at := rng.Intn(len(rows))
					docs := draw(1 + rng.Intn(20))
					if _, err := p.StageDeltaAt(ctx, drybell.SliceSource(docs), at); err != nil {
						t.Fatalf("%s: StageDeltaAt: %v", what, err)
					}
					add(at, docs)
					wantCarried = false
					what += " rewrite"
				case op == 6: // tombstones, with or without an append
					var deleted []int
					for _, d := range rng.Perm(len(rows))[:1+rng.Intn(5)] {
						if rows[d] != nil && len(live()) > 1 {
							deleted = append(deleted, d)
							rows[d] = nil
						}
					}
					if len(deleted) == 0 {
						continue
					}
					var src drybell.Source[doc]
					if rng.Intn(2) == 0 {
						docs := draw(1 + rng.Intn(10))
						src = drybell.SliceSource(docs)
						add(len(rows), docs)
					}
					if _, err := p.StageDelta(ctx, src, deleted...); err != nil {
						t.Fatalf("%s: StageDelta: %v", what, err)
					}
					wantCarried = false
					what += " tombstones"
				case op == 7: // compact: the carried view survives it
					if err := p.Compact(); err != nil {
						t.Fatalf("%s: Compact: %v", what, err)
					}
					rows = slices.DeleteFunc(rows, func(d *doc) bool { return d == nil })
					what += " compact"
				default: // the rival appends and runs a round behind p's back
					docs := draw(5 + rng.Intn(20))
					if _, err := rival.StageDelta(ctx, drybell.SliceSource(docs)); err != nil {
						t.Fatalf("%s: rival StageDelta: %v", what, err)
					}
					if _, err := rival.IncrementalRun(ctx, lfs); err != nil {
						t.Fatalf("%s: rival round: %v", what, err)
					}
					add(len(rows), docs)
					if rng.Intn(2) == 0 {
						if err := rival.Compact(); err != nil { // and may fold it away: a flat p has not seen
							t.Fatalf("%s: rival Compact: %v", what, err)
						}
						rows = slices.DeleteFunc(rows, func(d *doc) bool { return d == nil })
						wantCarried = false
					}
					what += " rival"
				}

				got, err := p.IncrementalRun(ctx, lfs)
				if err != nil {
					t.Fatalf("%s: IncrementalRun: %v", what, err)
				}
				if carried := got.ViewRebuilt == ""; carried != wantCarried {
					t.Errorf("%s: view carried = %v (rebuilt: %q), want %v", what, carried, got.ViewRebuilt, wantCarried)
				}
				fresh, err := newPipeline(t, drybell.WithFS(p.FS())).IncrementalRun(ctx, lfs)
				if err != nil {
					t.Fatalf("%s: round without state: %v", what, err)
				}
				if fresh.ViewRebuilt != "no_state" || len(fresh.Generations) != 0 {
					t.Fatalf("%s: round without state: rebuilt %q, published %v", what, fresh.ViewRebuilt, fresh.Generations)
				}
				requireSameRound(t, what, got, fresh)
				if got.Matrix.NumExamples() != len(live()) {
					t.Fatalf("%s: view has %d rows, the corpus %d documents", what, got.Matrix.NumExamples(), len(live()))
				}
				labels, err := p.Labels()
				if err != nil {
					t.Fatalf("%s: Labels: %v", what, err)
				}
				requireSameFloats(t, what+": persisted labels", labels, got.Posteriors)
				carrying = true
			}

			last, err := p.IncrementalRun(ctx, lfs)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := newPipeline(t).Run(ctx, drybell.SliceSource(live()), lfs)
			if err != nil {
				t.Fatal(err)
			}
			requireSameFloats(t, "against a cold Run: alpha", last.Model.Alpha, cold.Model.Alpha)
			requireSameFloats(t, "against a cold Run: posteriors", last.Posteriors, cold.Posteriors)
		})
	}
}

// TestCarriedRunIntoFirstRound: a batch Run is the first round of the
// incremental loop. It hands the Pipeline the view it published and the
// training state over it, so the first IncrementalRun after it streams one
// segment — the appended generation's rows — and warm-starts from Run's
// compaction, where it used to re-read and re-compact the whole store
// (no_state); and the round still equals, bit for bit, a fresh Pipeline's
// round over the same store and a cold Run over the grown corpus.
func TestCarriedRunIntoFirstRound(t *testing.T) {
	ctx := context.Background()
	docs := wordDocs(rand.New(rand.NewSource(5)), 0, 560)
	delta := docs[500:]
	lfs := testRunners()

	p := newPipeline(t)
	if _, err := p.Run(ctx, drybell.SliceSource(docs[:500]), lfs); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StageDelta(ctx, drybell.SliceSource(delta)); err != nil {
		t.Fatal(err)
	}
	got, err := p.IncrementalRun(ctx, lfs)
	if err != nil {
		t.Fatal(err)
	}
	if got.ViewRebuilt != "" || got.SegmentsScanned != 1 || got.RowsScanned != len(delta) {
		t.Fatalf("first round after Run: rebuilt %q, streamed %d segments and %d vote rows; want Run's view carried and only the %d delta rows read",
			got.ViewRebuilt, got.SegmentsScanned, got.RowsScanned, len(delta))
	}
	if !got.WarmStarted {
		t.Fatal("first round after Run started cold, want it warm-started from Run's training state")
	}

	fresh, err := newPipeline(t, drybell.WithFS(p.FS())).IncrementalRun(ctx, lfs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRound(t, "against a Pipeline without state", got, fresh)
	cold, err := newPipeline(t).Run(ctx, drybell.SliceSource(docs), lfs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameFloats(t, "against a cold Run: alpha", got.Model.Alpha, cold.Model.Alpha)
	requireSameFloats(t, "against a cold Run: posteriors", got.Posteriors, cold.Posteriors)
}

// TestCarriedCompactAfterRivalRewrite: when a rival rewrites rows behind a
// Pipeline's back, the Pipeline's Compact cannot fold from its carried view
// and re-reads the chain. The training state it carried is over the old rows
// — as many as the folded view holds — so it must go with the old view:
// extending that compaction trained the next round on the rewritten row's
// stale votes.
func TestCarriedCompactAfterRivalRewrite(t *testing.T) {
	ctx := context.Background()
	docs := wordDocs(rand.New(rand.NewSource(9)), 0, 330)
	lfs := testRunners()
	p := newPipeline(t)
	if _, err := p.Run(ctx, drybell.SliceSource(docs[:300]), lfs); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StageDelta(ctx, drybell.SliceSource(docs[300:])); err != nil {
		t.Fatal(err)
	}
	if _, err := p.IncrementalRun(ctx, lfs); err != nil {
		t.Fatal(err)
	}

	rival := newPipeline(t, drybell.WithFS(p.FS()))
	rewritten := []doc{{ID: 7, Text: "report: gossip redcarpet"}, {ID: 8, Text: "report: infrastructure"}}
	if _, err := rival.StageDeltaAt(ctx, drybell.SliceSource(rewritten), 7); err != nil {
		t.Fatal(err)
	}
	if _, err := rival.IncrementalRun(ctx, lfs); err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	got, err := p.IncrementalRun(ctx, lfs)
	if err != nil {
		t.Fatal(err)
	}
	grown := append(append(slices.Clone(docs[:7]), rewritten...), docs[9:]...)
	cold, err := newPipeline(t).Run(ctx, drybell.SliceSource(grown), lfs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameFloats(t, "against a cold Run: alpha", got.Model.Alpha, cold.Model.Alpha)
	requireSameFloats(t, "against a cold Run: posteriors", got.Posteriors, cold.Posteriors)
}

// TestCarriedRoundCostIsTheDelta: a round over appended documents touches the
// delta, not the corpus. The same 200-document round over a 4k-row base and
// over a 40k-row base must read the same number of files and perform the same
// number of allocations (±10%): what grows with the corpus is a fixed number
// of larger copies — train and persist — and nothing per row.
func TestCarriedRoundCostIsTheDelta(t *testing.T) {
	ctx := context.Background()
	lfs := testRunners()
	measure := func(base int) (reads int64, allocs uint64) {
		rng := rand.New(rand.NewSource(11))
		fs := obs.InstrumentFS(drybell.NewMemFS(), obs.NewRegistry()).(*obs.InstrumentedFS)
		// One worker: goroutine scheduling must not decide how many buffers
		// the delta job allocates.
		p := newPipeline(t, drybell.WithFS(fs), drybell.WithParallelism(1))
		if _, err := p.Run(ctx, drybell.SliceSource(wordDocs(rng, 0, base)), lfs); err != nil {
			t.Fatal(err)
		}
		// Run leaves its view and training state, so the first round after it
		// is already the steady one.
		delta := wordDocs(rng, base, 200)
		if _, err := p.StageDelta(ctx, drybell.SliceSource(delta)); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reads = fs.Counts().Reads
		res, err := p.IncrementalRun(ctx, lfs)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.ViewRebuilt != "" || res.RowsScanned != len(delta) || res.DeltaExamples != len(delta) || !res.WarmStarted {
			t.Fatalf("round over %d rows: rebuilt %q, scanned %d vote rows, executed %d documents, warm-started %v; want the %d of the delta, warm",
				base, res.ViewRebuilt, res.RowsScanned, res.DeltaExamples, res.WarmStarted, len(delta))
		}
		return fs.Counts().Reads - reads, after.Mallocs - before.Mallocs
	}
	smallReads, smallAllocs := measure(4_000)
	largeReads, largeAllocs := measure(40_000)
	if smallReads != largeReads {
		t.Errorf("a round read %d files over a 4k-row base and %d over a 40k-row base", smallReads, largeReads)
	}
	if ratio := float64(largeAllocs) / float64(smallAllocs); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("a round made %d allocations over a 4k-row base and %d over a 40k-row base (×%.2f)", smallAllocs, largeAllocs, ratio)
	}
}
