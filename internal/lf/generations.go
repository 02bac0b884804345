// Versioned vote store: append-only generations layered over the columnar
// vote artifact.
//
// A batch run publishes the flat artifact at "<prefix>/votes" (votes.go).
// Incremental runs do not rewrite it: each corpus delta publishes a
// generation — a data segment in the same columnar shard format plus a
// CRC'd JSON manifest recording its row range, column names, and tombstoned
// rows — under "<prefix>/votes/_gen/<n>". Manifests are written to a temp
// key and atomically renamed, so a generation is either fully visible or
// absent; the data segment commits before its manifest, so a visible
// manifest always has readable data.
//
// The store is read one way (votes.go: planVotes, then one scan): the flat
// artifact is the segment at row 0, generations follow in ascending order,
// Chain folds their row ranges and tombstones, the view is allocated once at
// live rows × requested columns, and each segment streams into it oldest
// first — so later row ranges supersede earlier ones column-wise and
// tombstoned rows never materialize. A store carrying only the flat artifact
// is the one-segment case of the same read.
package lf

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dfs"
	"repro/internal/labelmodel"
)

// GenerationMeta is the manifest of one vote generation.
type GenerationMeta struct {
	// Gen is the generation number, 1-based and strictly increasing; the
	// flat artifact is implicitly generation 0.
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
	// CRC is the IEEE CRC32 of this manifest's JSON with CRC itself zeroed —
	// a torn or hand-edited manifest is rejected at read time.
	CRC uint32 `json:"crc"`
}

// genDir is the DFS directory holding generation manifests and data
// segments for a votes base.
func genDir(base string) string { return path.Join(base, "_gen") }

// genManifestPath is the manifest key of generation gen.
func genManifestPath(base string, gen int) string {
	return path.Join(genDir(base), fmt.Sprintf("%05d", gen))
}

// genDataBase is the columnar data segment base of generation gen. It is a
// sibling key of the manifest ("<manifest>.data"), not a child, so
// disk-backed filesystems never need a key to be both file and directory.
func genDataBase(base string, gen int) string {
	return genManifestPath(base, gen) + ".data"
}

// manifestCRC computes the manifest checksum: the CRC32 of its JSON with the
// CRC field zeroed. Struct-field order makes the marshaling deterministic.
func manifestCRC(meta GenerationMeta) (uint32, error) {
	meta.CRC = 0
	raw, err := json.Marshal(meta)
	if err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(raw), nil
}

// WriteGeneration publishes one vote generation: the matrix as a columnar
// data segment, then the CRC'd manifest via write-temp-and-rename, so
// concurrent readers see either the previous chain or the full new
// generation, never a half-written one. meta.Rows and meta.CRC are filled
// here; the caller sets Gen, Names, StartRow, Shards, and Deleted.
func WriteGeneration(fs dfs.FS, base string, meta GenerationMeta, mx *labelmodel.Matrix) error {
	if meta.Gen <= 0 {
		return fmt.Errorf("lf: vote generation number %d, want >= 1 (the flat artifact is generation 0)", meta.Gen)
	}
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
	// A nil matrix is a deletions-only generation: tombstones in the
	// manifest, no data segment.
	meta.Rows = 0
	if mx != nil {
		meta.Rows = mx.NumExamples()
		if err := WriteVotes(fs, genDataBase(base, meta.Gen), mx, meta.Names, meta.Shards); err != nil {
			return fmt.Errorf("lf: write generation %d data: %w", meta.Gen, err)
		}
	}
	crc, err := manifestCRC(meta)
	if err != nil {
		return fmt.Errorf("lf: encode generation %d manifest: %w", meta.Gen, err)
	}
	meta.CRC = crc
	raw, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("lf: encode generation %d manifest: %w", meta.Gen, err)
	}
	dst := genManifestPath(base, meta.Gen)
	tmp := dst + ".tmp"
	if err := fs.WriteFile(tmp, raw); err != nil {
		return fmt.Errorf("lf: write generation %d manifest: %w", meta.Gen, err)
	}
	if err := fs.Rename(tmp, dst); err != nil {
		return fmt.Errorf("lf: promote generation %d manifest: %w", meta.Gen, err)
	}
	return nil
}

// LatestGeneration returns the highest published generation number, or 0
// when only the flat artifact (or nothing) exists.
func LatestGeneration(fs dfs.FS, base string) (int, error) {
	gens, err := ListGenerations(fs, base)
	if err != nil {
		return 0, err
	}
	if len(gens) == 0 {
		return 0, nil
	}
	return gens[len(gens)-1].Gen, nil
}

// manifestGen parses a key under _gen/ as a manifest key. Manifest keys are
// exactly the zero-padded generation number; everything else there (data
// segment shards and their metas, in-flight .tmp manifests) is not a manifest.
func manifestGen(name string) (int, bool) {
	if strings.ContainsAny(name, "./-") {
		return 0, false
	}
	gen, err := strconv.Atoi(name)
	return gen, err == nil
}

// ListGenerations returns the published generation manifests in ascending
// generation order, validating each manifest's checksum and its consistency
// with its key. A corrupt manifest fails the whole listing — an incremental
// reader must never silently skip part of the chain.
func ListGenerations(fs dfs.FS, base string) ([]GenerationMeta, error) {
	prefix := genDir(base) + "/" //drybellvet:notapath — List prefix; the trailing "/" is significant
	keys, err := fs.List(prefix)
	if err != nil {
		return nil, fmt.Errorf("lf: list vote generations at %s: %w", base, err)
	}
	var gens []GenerationMeta
	for _, key := range keys {
		wantGen, ok := manifestGen(strings.TrimPrefix(key, prefix))
		if !ok {
			continue
		}
		raw, err := fs.ReadFile(key)
		if err != nil {
			return nil, fmt.Errorf("lf: read vote generation manifest %s: %w", key, err)
		}
		var meta GenerationMeta
		if err := json.Unmarshal(raw, &meta); err != nil {
			return nil, fmt.Errorf("lf: vote generation manifest %s is corrupt: %w", key, err)
		}
		want, err := manifestCRC(meta)
		if err != nil {
			return nil, fmt.Errorf("lf: vote generation manifest %s: %w", key, err)
		}
		if meta.CRC != want {
			return nil, fmt.Errorf("lf: vote generation manifest %s is corrupt: checksum %08x does not match contents (want %08x)", key, meta.CRC, want)
		}
		if meta.Gen != wantGen {
			return nil, fmt.Errorf("lf: vote generation manifest %s claims generation %d", key, meta.Gen)
		}
		if meta.Rows < 0 || meta.StartRow < 0 || meta.Shards <= 0 || len(meta.Names) == 0 {
			return nil, fmt.Errorf("lf: vote generation manifest %s is degenerate (%d rows from %d, %d shards, %d names)",
				key, meta.Rows, meta.StartRow, meta.Shards, len(meta.Names))
		}
		gens = append(gens, meta)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].Gen < gens[j].Gen })
	for i := 1; i < len(gens); i++ {
		if gens[i].Gen == gens[i-1].Gen {
			return nil, fmt.Errorf("lf: duplicate vote generation %d at %s", gens[i].Gen, base)
		}
	}
	return gens, nil
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

// CompactView folds the generation chain back into one flat columnar artifact
// — the housekeeping step that bounds chain length for readers — and removes
// the folded generation files. The resulting artifact is byte-identical to
// what a from-scratch run over the same (compacted) corpus would publish with
// the same shard count, because the artifact's write generation is
// content-derived. A chain whose tombstones cover every row is refused
// (ErrAllTombstoned) with the store untouched.
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
	gens, err := ListGenerations(fs, base)
	if err != nil {
		return nil, err
	}
	if len(gens) == 0 {
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
	if err := WriteVotes(fs, base, folded.Matrix, folded.Names, shards); err != nil {
		return nil, fmt.Errorf("lf: compact vote generations at %s: %w", base, err)
	}
	// The flat artifact now carries the whole view; drop the folded chain. The
	// sidecar just written says what the view's watermark has become.
	flat, err := readVotesMeta(fs, base)
	if err != nil {
		return nil, err
	}
	folded.flat = flat.generation()
	return folded, DropGenerations(fs, base, false)
}

// DropGenerations removes the generation chain over the flat artifact at base
// without reading it: what CompactView does once the chain is folded. With
// flat it then removes the flat artifact — generation 0 — as well, leaving an
// empty store: what staging a new base corpus does, since every vote stored
// is for the corpus being superseded. Manifests go first, then the sidecar,
// so a crash mid-way leaves orphaned data segments and shards (ignored by
// readers) rather than manifests or a sidecar with missing data. A store with
// no chain costs one List.
func DropGenerations(fs dfs.FS, base string, flat bool) error {
	prefix := genDir(base) + "/" //drybellvet:notapath — List prefix; the trailing "/" is significant
	keys, err := fs.List(prefix)
	if err != nil {
		return fmt.Errorf("lf: list vote generations at %s: %w", base, err)
	}
	var data []string
	for _, key := range keys {
		if _, ok := manifestGen(strings.TrimPrefix(key, prefix)); !ok {
			data = append(data, key)
			continue
		}
		if err := fs.Remove(key); err != nil {
			return fmt.Errorf("lf: drop vote generations at %s: %w", base, err)
		}
	}
	for _, key := range data {
		_ = fs.Remove(key) // orphaned segments are never read
	}
	if !flat {
		return nil
	}
	if err := fs.Remove(votesMetaPath(base)); err != nil && !dfs.IsNotExist(err) {
		return fmt.Errorf("lf: drop votes at %s: %w", base, err)
	}
	shards, _ := fs.List(base + "-")
	for _, p := range shards {
		if b, _, _, ok := dfs.ParseShardPath(p); ok && b == base {
			_ = fs.Remove(p) // orphaned shards are never read
		}
	}
	return nil
}
