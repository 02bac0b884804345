// Compaction: fold the generation chain back into flat artifacts.
//
// Incremental runs leave two parallel ledgers behind — corpus deltas under
// the input area and vote generations over generation 0. Compact
// folds both in one step, which is the only safe unit: folding votes alone
// resets the vote store's generation counter while the corpus manifest still
// lists deltas, and the next run would re-execute (or mis-number) them.

package drybell

import (
	"fmt"
	"path"

	"repro/internal/dfs"
	internallf "repro/internal/lf"
	"repro/internal/mapreduce"
	"repro/internal/recordio"
)

// Compact folds the corpus delta ledger and the vote generation chain into
// flat base artifacts — the housekeeping step that bounds chain length for
// readers. Afterwards the filesystem is indistinguishable from a fresh base
// run staged over the compacted corpus and compacted itself: restaged input
// shards and the folded vote artifact are byte-identical to that run's, both
// ledgers are empty, and the next StageDelta starts a new chain at
// generation 1.
//
// Compact requires the vote store to be caught up with the corpus ledger
// (every staged delta executed: run IncrementalRun first); otherwise the
// pending deltas' votes would be lost. It replays the deltas over the staged
// records with the vote layer's exact semantics — the same lf.Chain folds
// both ledgers: later generations supersede row ranges, tombstones drop rows
// unless a later generation rewrites them. A ledger whose tombstones cover
// every row is refused (lf.ErrAllTombstoned) with the filesystem untouched.
// Compact is not crash-safe. A crash while it restages the base input leaves
// the base without its commit record, and every later Compact and StageDelta
// fails: the base is not staged; a crash while it writes the flat vote
// artifact can leave shards of two writes under one commit record, which no
// longer load; and a crash just after can leave the new flat artifact under
// the old delta generations, a wrong view that loads without error and that a
// retried Compact persists. Killed after each filesystem operation (ROADMAP
// item 5a's root), a second Compact of 67 operations shows the three windows
// at operations 13–22, 53–59 and 60–62, and a first one of 73 at 13–22 and 64.
//
// The Pipeline's carried state stays valid — compaction changes the layout,
// never the view — and pays for the fold: when the carried view holds exactly
// what the vote chain holds (the last round merged all of it, under the
// stored columns in stored order) the flat artifact is written from it
// instead of from a re-read of the chain, and the view's watermark moves to
// the artifact just written, so the next round still reads only its delta.
func (p *Pipeline[T]) Compact() error {
	view, err := p.foldLedgers(p.carried.view)
	if err != nil {
		return err
	}
	// The training state is over the carried view's rows: it survives a fold
	// written from that view, not one that had to re-read the chain.
	if p.carried.view == nil || view.Matrix != p.carried.view.Matrix {
		p.carried.state = nil
	}
	p.carried.view = view
	return nil
}

// foldLedgers is Compact's fold. The vote chain folds from view instead of
// being read back whenever view holds exactly what the chain holds
// (lf.CompactView); it returns the view to carry on with — the same rows, at
// the watermark of the flat artifact just written.
func (p *Pipeline[T]) foldLedgers(view *internallf.View) (*internallf.View, error) {
	votesBase := p.VotesBase()
	gens, err := p.CorpusGenerations()
	if err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		// Nothing in the corpus ledger; fold any leftover vote chain (the
		// crash-repair path) and be done.
		return internallf.CompactView(p.fs, votesBase, p.shards, view)
	}
	executed, err := internallf.LatestGeneration(p.fs, votesBase)
	if err != nil {
		return nil, err
	}
	if executed < len(gens) {
		return nil, fmt.Errorf("drybell: compact: corpus ledger has %d generations but only %d executed; run IncrementalRun first", len(gens), executed)
	}

	records, err := mapreduce.ReadStaged(p.fs, p.InputPath())
	if err != nil {
		return nil, fmt.Errorf("drybell: compact: read base corpus: %w", err)
	}
	// The ledger folds by the vote store's own rule (lf.Chain), so the
	// restaged corpus and the folded votes keep exactly the same rows — and a
	// fold with nothing left is refused before anything is rewritten.
	chain, err := foldCorpus(len(records), gens)
	if err != nil {
		return nil, err
	}
	if chain.Live() == 0 {
		return nil, fmt.Errorf("drybell: compact: %w (%d rows staged)", internallf.ErrAllTombstoned, chain.Rows)
	}
	records = append(records, make([][]byte, chain.Rows-len(records))...)
	for _, g := range gens {
		if g.Records == 0 {
			continue
		}
		drecs, err := mapreduce.ReadStaged(p.fs, p.deltaInputBase(g.Gen))
		if err != nil {
			return nil, fmt.Errorf("drybell: compact: read delta generation %d: %w", g.Gen, err)
		}
		if len(drecs) != g.Records {
			return nil, fmt.Errorf("drybell: compact: delta generation %d staged %d records, manifest says %d", g.Gen, len(drecs), g.Records)
		}
		copy(records[g.StartRow:], drecs)
	}
	w, err := mapreduce.NewInputWriter(p.fs, p.InputPath(), p.shards)
	if err != nil {
		return nil, err
	}
	// The restaged shards hold what was just read, less the tombstoned rows:
	// size their buffers once instead of doubling up to it.
	w.Grow(recordio.EncodedSize(records))
	for i, rec := range records {
		if chain.Tombstoned(i) {
			continue
		}
		if err := w.Append(rec); err != nil {
			return nil, fmt.Errorf("drybell: compact: restage corpus: %w", err)
		}
	}
	if err := w.Commit(); err != nil {
		return nil, fmt.Errorf("drybell: compact: restage corpus: %w", err)
	}
	if err := p.resetCorpusLedger(); err != nil {
		return nil, err
	}
	return internallf.CompactView(p.fs, votesBase, p.shards, view)
}

// resetCorpusLedger empties the corpus delta ledger and removes, unread, the
// delta inputs and the vote jobs' task checkpoints, all of inputs about to be
// superseded. Its callers reset the vote
// generation chain next — Compact folds it into the flat artifact, staging a
// new base corpus drops it and the flat artifact unread, since the votes they
// hold are for a corpus about to be superseded — and in that order: if we
// crash in between, the vote chain still stands over an empty ledger — reads
// stay correct and a Compact retry folds it — whereas resetting votes first
// would reset the generation counter under a manifest that still lists
// deltas.
func (p *Pipeline[T]) resetCorpusLedger() error {
	if err := p.fs.Remove(p.corpusManifestPath()); err != nil && !dfs.IsNotExist(err) {
		return fmt.Errorf("drybell: remove corpus manifest: %w", err)
	}
	// Orphaned inputs and checkpoints are never read again (a checkpoint is
	// keyed on its input's digest): what fails to go can stay.
	for _, dir := range []string{path.Join(p.workDir, "input", "_delta"), path.Join(p.votesPrefix(), "_runtime")} {
		stale, _ := p.fs.List(dir + "/") //drybellvet:notapath — List prefix; the trailing "/" is significant
		for _, key := range stale {
			_ = p.fs.Remove(key)
		}
	}
	return nil
}
