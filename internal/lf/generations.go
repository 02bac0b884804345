// Versioned vote store: every write appends; none reads, merges and rewrites.
//
// An execution over the base corpus (Executor.ExecuteContext) publishes a
// generation-0 segment over base rows [0, m), each corpus delta a generation
// over its row range: a data segment in the columnar shard format (votes.go)
// plus a checksummed JSON manifest (dfs.WriteJSON) of row range, columns and
// tombstones, under "<prefix>/votes/_gen/". A delta's key is its number
// ("00001"); a segment's is "00000-<seq>-<hash>", seq one past the highest
// listed and hash the votes' content-derived write generation, so writers of
// different votes never share a key. A manifest is written, atomically, after
// its data segment's commit record, so a visible manifest always has readable
// data. Only compaction writes the flat artifact at "<prefix>/votes".
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

// GenerationMeta is the manifest of one vote generation.
type GenerationMeta struct {
	// Gen is the delta generation number, 1-based and strictly increasing; 0
	// for a generation-0 segment over the base corpus.
	Gen int `json:"gen"`
	// Names lists this generation's labeling functions in column order.
	Names []string `json:"names"`
	// StartRow is the absolute row index (in staging order, before any
	// tombstone compaction) where this generation's rows begin.
	StartRow int `json:"start_row"`
	// Rows is the number of vote rows in this generation's data segment.
	Rows int `json:"rows"`
	// Shards is the data segment's shard count.
	Shards int `json:"shards"`
	// Deleted lists absolute row indices this generation tombstones. A later
	// generation whose row range covers a tombstoned row resurrects it.
	Deleted []int `json:"deleted,omitempty"`
}

// genDir is the DFS directory holding generation manifests and data
// segments for a votes base.
func genDir(base string) string { return path.Join(base, "_gen") }

// chainKey is a manifest's place in the chain, spelled as its key under
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

// path is the manifest key. Its data segment base is the sibling key
// "<manifest>.data", not a child, so disk-backed filesystems never need a key
// to be both file and directory.
func (k chainKey) path(base string) string { return path.Join(genDir(base), k.String()) }

// parseChainKey parses a name under _gen/ as a manifest key. Only the
// canonical spelling parses; everything else there (data segment shards and
// their commit records) is not a manifest.
func parseChainKey(name string) (chainKey, bool) {
	var k chainKey
	if strings.Contains(name, ".") {
		return k, false // the common case, decided without allocating: every read lists every shard
	}
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

// WriteGeneration publishes one delta generation: the matrix as a columnar
// data segment, then the checksummed manifest, so concurrent readers see
// either the previous chain or the full new generation, never a half-written
// one. meta.Rows is filled here; the caller sets Gen, Names, StartRow, Shards,
// and Deleted.
func WriteGeneration(fs dfs.FS, base string, meta GenerationMeta, mx *labelmodel.Matrix) error {
	if meta.Gen <= 0 {
		return fmt.Errorf("lf: vote generation number %d, want >= 1 (generation 0 is what ExecuteContext publishes)", meta.Gen)
	}
	var hash uint64
	if mx != nil {
		hash = voteGeneration(mx, meta.Names, meta.Shards)
	}
	return writeManifest(fs, base, chainKey{gen: meta.Gen}, meta, mx, hash)
}

// publishSegment publishes mx as a generation-0 segment over base rows [0, m)
// and returns its key. It reads no votes: the key's seq comes from the listed
// keys alone, and its hash from mx, so the only writer it can share a key with
// is one writing the same bytes.
func publishSegment(fs dfs.FS, base string, mx *labelmodel.Matrix, names []string, shards int) (chainKey, error) {
	keys, _, err := listKeys(fs, base)
	if err != nil {
		return chainKey{}, err
	}
	k := chainKey{seq: 1, hash: voteGeneration(mx, names, shards)}
	for _, other := range keys {
		if other.gen == 0 {
			k.seq = max(k.seq, other.seq+1)
		}
	}
	return k, writeManifest(fs, base, k, GenerationMeta{Names: names, Shards: shards}, mx, k.hash)
}

// writeManifest publishes the manifest at k, after mx — written with write
// generation hash — as its data segment. A nil matrix is a deletions-only
// generation: tombstones in the manifest, no data segment.
func writeManifest(fs dfs.FS, base string, k chainKey, meta GenerationMeta, mx *labelmodel.Matrix, hash uint64) error {
	if meta.StartRow < 0 {
		return fmt.Errorf("lf: vote generation %d starts at negative row %d", meta.Gen, meta.StartRow)
	}
	if meta.Shards <= 0 {
		return fmt.Errorf("lf: vote generation %d with %d shards", meta.Gen, meta.Shards)
	}
	for _, d := range meta.Deleted {
		if d < 0 {
			return fmt.Errorf("lf: vote generation %d tombstones negative row %d", meta.Gen, d)
		}
	}
	if mx == nil && len(meta.Deleted) == 0 {
		return fmt.Errorf("lf: vote generation %d has neither votes nor tombstones", meta.Gen)
	}
	dst := k.path(base)
	meta.Rows = 0
	if mx != nil {
		meta.Rows = mx.NumExamples()
		if err := writeVotes(fs, dst+".data", mx, meta.Names, meta.Shards, hash); err != nil {
			return fmt.Errorf("lf: write generation %d data: %w", meta.Gen, err)
		}
	}
	if err := dfs.WriteJSON(fs, dst, meta); err != nil {
		return fmt.Errorf("lf: write generation %d manifest: %w", meta.Gen, err)
	}
	return nil
}

// LatestGeneration returns the highest published delta generation number, or
// 0 when only generation 0 — the flat artifact and generation-0 segments — or
// nothing exists.
func LatestGeneration(fs dfs.FS, base string) (int, error) {
	ms, err := listManifests(fs, base)
	if err != nil || len(ms) == 0 {
		return 0, err
	}
	return ms[len(ms)-1].Gen, nil
}

// listKeys lists the manifest keys under base's _gen/ directory in chain
// order, and the directory's other keys (data segments and their records).
func listKeys(fs dfs.FS, base string) ([]chainKey, []string, error) {
	prefix := genDir(base) + "/" //drybellvet:notapath — List prefix; the trailing "/" is significant
	names, err := fs.List(prefix)
	if err != nil {
		return nil, nil, fmt.Errorf("lf: list vote generations at %s: %w", base, err)
	}
	var keys []chainKey
	var others []string
	for _, name := range names {
		if k, ok := parseChainKey(strings.TrimPrefix(name, prefix)); ok {
			keys = append(keys, k)
		} else {
			others = append(others, name)
		}
	}
	slices.SortFunc(keys, func(a, b chainKey) int { // generation 0 by (seq, hash), then the deltas
		return cmp.Or(cmp.Compare(a.gen, b.gen), cmp.Compare(a.seq, b.seq), cmp.Compare(a.hash, b.hash))
	})
	return keys, others, nil
}

// manifest is one published manifest: where it stands, its key, what it
// says, and its checksum.
type manifest struct {
	GenerationMeta
	at  chainKey
	key string
	crc uint32
}

// listManifests returns the published manifests in chain order, validating
// each one's checksum (dfs.ReadJSON) and its consistency with its key. A
// corrupt manifest fails the whole listing — a reader must never silently
// skip part of the chain.
func listManifests(fs dfs.FS, base string) ([]manifest, error) {
	keys, _, err := listKeys(fs, base)
	if err != nil {
		return nil, err
	}
	ms := make([]manifest, 0, len(keys))
	for _, k := range keys {
		key := k.path(base)
		var meta GenerationMeta
		crc, err := dfs.ReadJSON(fs, key, &meta)
		if err != nil {
			return nil, fmt.Errorf("lf: read vote generation manifest %s: %w", key, err)
		}
		if meta.Gen != k.gen {
			return nil, fmt.Errorf("lf: vote generation manifest %s claims generation %d", key, meta.Gen)
		}
		if meta.Rows < 0 || meta.StartRow < 0 || meta.Shards <= 0 || len(meta.Names) == 0 {
			return nil, fmt.Errorf("lf: vote generation manifest %s is degenerate (%d rows from %d, %d shards, %d names)",
				key, meta.Rows, meta.StartRow, meta.Shards, len(meta.Names))
		}
		ms = append(ms, manifest{meta, k, key, crc})
	}
	return ms, nil
}

// SegmentOf returns the manifest key of the newest generation-0 segment at
// base holding exactly mx under names — what an ExecuteContext of them published —
// or "" when none stands.
func SegmentOf(fs dfs.FS, base string, mx *labelmodel.Matrix, names []string) (string, error) {
	ms, err := listManifests(fs, base)
	for i := len(ms) - 1; i >= 0; i-- {
		if m := ms[i]; m.Gen == 0 && slices.Equal(m.Names, names) && m.at.hash == voteGeneration(mx, names, m.Shards) {
			return m.key, nil
		}
	}
	return "", err
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
// count, because the artifact's write generation is content-derived. A chain
// whose tombstones cover every row is refused (ErrAllTombstoned) with the
// store untouched.
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
	ms, err := listManifests(fs, base)
	if err != nil {
		return nil, err
	}
	if len(ms) == 0 {
		return view, nil
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
	// The flat artifact's write generation is the folded view's watermark.
	folded.flat = voteGeneration(folded.Matrix, folded.Names, shards)
	if err := writeVotes(fs, base, folded.Matrix, folded.Names, shards, folded.flat); err != nil {
		return nil, fmt.Errorf("lf: compact vote generations at %s: %w", base, err)
	}
	return folded, DropGenerations(fs, base, false)
}

// DropGenerations removes the generation chain over the flat artifact at base
// without reading it: what CompactView does once the chain is folded. With
// flat it then removes the flat artifact as well, leaving an empty store:
// what staging a new base corpus does, since every vote stored is for the
// corpus being superseded. Manifests go first, newest first, then the flat
// artifact's commit record, so a crash part-way leaves a shorter chain that
// still reads, with orphaned data segments and shards (ignored by readers) —
// never a manifest or a commit record with missing data. A store with no
// chain costs one List.
func DropGenerations(fs dfs.FS, base string, flat bool) error {
	keys, data, err := listKeys(fs, base)
	if err != nil {
		return err
	}
	for i := len(keys) - 1; i >= 0; i-- {
		if err := fs.Remove(keys[i].path(base)); err != nil {
			return fmt.Errorf("lf: drop vote generations at %s: %w", base, err)
		}
	}
	for _, key := range data {
		_ = fs.Remove(key) // orphaned segments are never read
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
