// Versioned vote store: every write appends; none reads, merges and rewrites.
//
// An execution over the base corpus (Executor.ExecuteContext) publishes a
// generation-0 segment over base rows [0, m), each corpus delta a generation
// over its row range, under "<prefix>/votes/_gen/". A generation is one shard
// set in the columnar format (votes.go) and nothing else: its shards
// "<key>-SSSSS-of-NNNNN" and its commit record "<key>.commit" (dfs.Record),
// which names its columns and gives its row range and tombstones next to its
// rows and shard digests. A deletions-only generation is a zero-row set. A
// delta's key is its number ("00001"); a segment's is "00000-<seq>-<hash>",
// seq one past the highest listed and hash derived from its shards' CRCs
// (voteGeneration). The record is written, atomically, after every shard, so
// a visible record always has readable data. Only compaction writes the flat
// artifact at "<prefix>/votes".
//
// The store is read one way (votes.go: planVotes, then one scan): the flat
// artifact at row 0, generation-0 segments by (seq, hash), then the deltas in
// order. Chain folds their row ranges and tombstones and each segment streams
// into the view oldest first, so later row ranges supersede earlier ones
// column-wise: a re-run replaces its columns, concurrent writers' columns
// union, and delta tombstones apply on top.
package lf

import (
	"cmp"
	"errors"
	"fmt"
	"path"
	"slices"
	"strconv"
	"strings"

	"repro/internal/dfs"
	"repro/internal/labelmodel"
)

// genDir is the DFS directory holding the generations of a votes base.
func genDir(base string) string { return path.Join(base, "_gen") }

// chainKey is a generation's place in the chain, spelled as its key under
// _gen/: a delta generation's zero-padded number, or a generation-0
// segment's writer sequence number and content hash.
type chainKey struct {
	gen, seq int
	hash     uint64
}

func (k chainKey) String() string {
	if k.gen > 0 {
		return fmt.Sprintf("%05d", k.gen)
	}
	return fmt.Sprintf("%05d-%05d-%016x", 0, k.seq, k.hash)
}

// path is the base of the generation's shard set.
func (k chainKey) path(base string) string { return path.Join(genDir(base), k.String()) }

// parseChainKey parses a key under _gen/. Only the canonical spelling parses.
func parseChainKey(name string) (chainKey, bool) {
	var k chainKey
	var err error
	if seq, hash, segment := strings.Cut(strings.TrimPrefix(name, "00000-"), "-"); segment {
		if k.seq, err = strconv.Atoi(seq); err == nil {
			k.hash, err = strconv.ParseUint(hash, 16, 64)
		}
	} else {
		k.gen, err = strconv.Atoi(name)
	}
	return k, err == nil && (k.gen > 0 || k.seq > 0) && k.String() == name
}

// publishGeneration publishes set as delta generation gen of the store at
// base, committed by one record carrying the set's Names (its columns, in
// order), StartRow (the absolute row, in staging order before any tombstone
// compaction, where its rows begin) and Deleted (the absolute rows it
// tombstones; a later generation whose row range covers one resurrects it).
// Concurrent readers see either the previous chain or the whole new
// generation. A zero-row set is a deletions-only generation.
func publishGeneration(fs dfs.FS, base string, gen int, set voteSet) error {
	rec := set.rec
	if gen <= 0 {
		return fmt.Errorf("lf: vote generation number %d, want >= 1 (generation 0 is what ExecuteContext publishes)", gen)
	}
	if rec.StartRow < 0 || slices.ContainsFunc(rec.Deleted, func(d int) bool { return d < 0 }) {
		return fmt.Errorf("lf: vote generation %d starts at or tombstones a negative row", gen)
	}
	if rec.Rows == 0 && len(rec.Deleted) == 0 {
		return fmt.Errorf("lf: vote generation %d has neither votes nor tombstones", gen)
	}
	if _, err := set.publish(fs, chainKey{gen: gen}.path(base)); err != nil {
		return fmt.Errorf("lf: write vote generation %d: %w", gen, err)
	}
	return nil
}

// publishSegment publishes set as a generation-0 segment over base rows
// [0, m) and returns its key. It reads no votes: the key's seq comes from the
// listed keys alone, and its hash from the set's CRCs (voteGeneration), so it
// shares a key only with a writer of shards of the same CRCs.
func publishSegment(fs dfs.FS, base string, set voteSet) (chainKey, error) {
	keys, _, err := listKeys(fs, base, true)
	if err != nil {
		return chainKey{}, err
	}
	k := chainKey{seq: 1}
	if k.hash, err = voteGeneration(set); err != nil {
		return chainKey{}, err
	}
	for _, other := range keys {
		if other.gen == 0 {
			k.seq = max(k.seq, other.seq+1)
		}
	}
	_, err = set.publish(fs, k.path(base))
	return k, err
}

// LatestGeneration returns the highest published delta generation number, or
// 0 when only generation 0 — the flat artifact and generation-0 segments — or
// nothing exists.
func LatestGeneration(fs dfs.FS, base string) (int, error) {
	keys, _, err := listKeys(fs, base, true)
	if err != nil || len(keys) == 0 {
		return 0, err
	}
	return keys[len(keys)-1].gen, nil
}

// listKeys lists the keys of the commit records under base's _gen/ directory
// in chain order, and the directory's other files. With strict, a file that
// is neither a generation's commit record nor a shard (published or
// .partial) fails the listing, naming it: a reader must never read part of a
// chain as all of it, and a store in an older layout — manifests beside
// ".data" sets — holds such files.
func listKeys(fs dfs.FS, base string, strict bool) ([]chainKey, []string, error) {
	prefix := genDir(base) + "/" //drybellvet:notapath — List prefix; the trailing "/" is significant
	names, err := fs.List(prefix)
	if err != nil {
		return nil, nil, fmt.Errorf("lf: list vote generations at %s: %w", base, err)
	}
	var keys []chainKey
	var others []string
	for _, name := range names {
		rel := strings.TrimPrefix(name, prefix)
		key, record := strings.CutSuffix(rel, ".commit")
		if k, ok := parseChainKey(key); ok && record {
			keys = append(keys, k)
			continue
		}
		if _, _, _, shard := dfs.ParseShardPath(strings.TrimSuffix(rel, ".partial")); strict && (record || !shard) {
			return nil, nil, fmt.Errorf("lf: votes at %s: %s is not a vote generation's commit record or shard (restage the input to rebuild the store)", base, name)
		}
		others = append(others, name)
	}
	slices.SortFunc(keys, func(a, b chainKey) int { // generation 0 by (seq, hash), then the deltas
		return cmp.Or(cmp.Compare(a.gen, b.gen), cmp.Compare(a.seq, b.seq), cmp.Compare(a.hash, b.hash))
	})
	return keys, others, nil
}

// SegmentOf returns the base of the newest generation-0 segment at base
// holding exactly mx under names — what an ExecuteContext of them published —
// or "" when none stands.
func SegmentOf(fs dfs.FS, base string, mx *labelmodel.Matrix, names []string) (string, error) {
	keys, _, err := listKeys(fs, base, true)
	if err != nil {
		return "", err
	}
	for i := len(keys) - 1; i >= 0; i-- {
		if keys[i].gen != 0 {
			continue
		}
		seg := keys[i].path(base)
		rec, err := readVoteRecord(fs, seg)
		if err != nil {
			return "", err
		}
		if rec != nil && slices.Equal(rec.Names, names) {
			// The key a run's blocks gave it, from mx's own encoding: none if
			// mx cannot be encoded, as no segment can hold it.
			if h, err := voteGeneration(matrixSet(mx, len(rec.Shards), dfs.Record{Names: names})); err == nil && h == keys[i].hash {
				return seg, nil
			}
		}
	}
	return "", nil
}

// ErrAllTombstoned is the cause reported when a chain's tombstones cover
// every row it holds: there is no view to read and nothing to compact to.
var ErrAllTombstoned = errors.New("every row is tombstoned")

// Chain is the running state of a generation chain — vote generations over
// the flat artifact, or corpus deltas over the staged base corpus, which
// advance in lockstep. Start it at the base's row count (the zero Chain is
// an empty base) and Apply the entries in ascending generation order.
type Chain struct {
	// Rows is the number of absolute rows (staging order, before tombstone
	// compaction) covered so far; the next append starts here.
	Rows  int
	tombs map[int]struct{}
}

// Apply is the chain rule's one implementation. Rows [startRow,
// startRow+rows) supersede what earlier generations put there — clearing any
// tombstone on them, since a rewritten row supersedes its own deletion — and
// extend the chain when they reach past its end; the generation's own
// tombstones apply after. A generation may not start beyond the rows covered
// so far (a gap is a staging bug, never padded) nor tombstone a row the chain
// does not hold. appended reports a pure append: rows starting exactly at the
// chain's end and no tombstones, so everything before them survives verbatim.
func (c *Chain) Apply(gen, startRow, rows int, deleted []int) (appended bool, err error) {
	if startRow < 0 || startRow > c.Rows {
		return false, fmt.Errorf("generation %d starts at row %d, beyond the %d rows covered by earlier generations",
			gen, startRow, c.Rows)
	}
	appended = startRow == c.Rows && len(deleted) == 0
	//drybellvet:ordered — deletes only; the surviving set is the same in any order
	for d := range c.tombs {
		if d >= startRow && d < startRow+rows {
			delete(c.tombs, d)
		}
	}
	c.Rows = max(c.Rows, startRow+rows)
	for _, d := range deleted {
		if d < 0 || d >= c.Rows {
			return false, fmt.Errorf("generation %d tombstones row %d, beyond the %d rows covered", gen, d, c.Rows)
		}
		if c.tombs == nil {
			c.tombs = make(map[int]struct{})
		}
		c.tombs[d] = struct{}{}
	}
	return appended, nil
}

// Live is the number of rows the compacted view holds.
func (c *Chain) Live() int { return c.Rows - len(c.tombs) }

// Tombstoned reports whether absolute row i is dropped from the view.
func (c *Chain) Tombstoned(i int) bool {
	_, dead := c.tombs[i]
	return dead
}

// CompactView folds the generation chain — generation-0 segments and delta
// generations — back into one flat columnar artifact, the housekeeping step
// that bounds chain length for readers, and removes the folded files. The
// resulting artifact is byte-identical to what a from-scratch run over the
// same (compacted) corpus would publish and compact with the same shard
// count: a vote set's bytes are its content's alone. A chain whose tombstones
// cover every row is refused (ErrAllTombstoned) with the store untouched.
//
// view is what the caller carries of the store (LoadView), or nil. When its
// watermark covers the whole chain and its columns are the stored column
// union in order, the fold writes the view instead of re-reading the chain it
// was merged from; otherwise the chain is read. It returns the folded store's
// view — the same rows at the watermark of the flat artifact just written —
// or view itself when there was no chain to fold.
//
// Tombstoned rows are dropped in the fold, so after compaction row indices
// are the post-compaction staging order; callers that track absolute row
// positions (corpus manifests) must compact those in the same step.
func CompactView(fs dfs.FS, base string, shards int, view *View) (*View, error) {
	keys, _, err := listKeys(fs, base, true)
	if err != nil || len(keys) == 0 {
		return view, err
	}
	p, err := planVotes(fs, base, true, nil)
	if err != nil {
		return nil, err
	}
	folded := &View{Names: p.names}
	if view.staleFor(p) == "" && len(view.gens) == len(p.gens) {
		folded.Matrix = view.Matrix
	} else if folded.Matrix, _, err = p.read(fs); err != nil {
		return nil, err
	}
	// The flat artifact's commit record is the folded view's watermark.
	rec, err := matrixSet(folded.Matrix, shards, dfs.Record{Names: folded.Names}).publish(fs, base)
	if err != nil {
		return nil, fmt.Errorf("lf: compact vote generations at %s: %w", base, err)
	}
	folded.flat = rec.Checksum
	return folded, DropGenerations(fs, base, false)
}

// DropGenerations removes the generation chain over the flat artifact at base
// without reading it: what CompactView does once the chain is folded. With
// flat it then removes the flat artifact as well, leaving an empty store:
// what staging a new base corpus does, since every vote stored is for the
// corpus being superseded. Commit records go first, newest first, then the
// flat artifact's, so a crash part-way leaves a shorter chain that still
// reads, with orphaned shards (ignored by readers) — never a commit record
// with missing shards. Whatever else stands under _gen/ goes too. A store with
// no chain costs one List.
func DropGenerations(fs dfs.FS, base string, flat bool) error {
	keys, others, err := listKeys(fs, base, false)
	if err != nil {
		return err
	}
	for i := len(keys) - 1; i >= 0; i-- {
		if err := fs.Remove(dfs.RecordPath(keys[i].path(base))); err != nil {
			return fmt.Errorf("lf: drop vote generations at %s: %w", base, err)
		}
	}
	for _, key := range others {
		_ = fs.Remove(key) // orphaned shards are never read
	}
	if !flat {
		return nil
	}
	if err := fs.Remove(dfs.RecordPath(base)); err != nil && !dfs.IsNotExist(err) {
		return fmt.Errorf("lf: drop votes at %s: %w", base, err)
	}
	_ = dfs.RemoveShards(fs, base, 0) // orphaned shards are never read
	return nil
}
