// Columnar vote artifact: the label matrix Λ persisted as one sharded,
// byte-per-vote file set — the only layout votes are written in or read
// from — and the one reader of the vote store.
//
// A shard set stores a matrix once under its base: shard s holds the vote
// rows of examples s, s+N, s+2N, … (the same round-robin layout as the staged
// input), each row exactly n bytes, one byte per vote, with a CRC32 over the
// payload. A JSON meta file records the labeling-function names in column
// order, so a reader can select and reorder columns by name. Writers rent
// shard buffers from a pool. The flat artifact at "<prefix>/votes" is one
// such set, written by compaction; every generation's data segment is
// another (generations.go).
//
// Every read of the store — generation 0 alone (ReadVotes, the resume fast
// path) or the whole chain (LoadMatrix, VerifyVotes, CompactView) — is the
// same two steps. planVotes builds a plan from metadata alone: the segment
// list, the column union, the rows the chain covers and its final tombstone
// set, and which stored column feeds which requested column. scan then
// streams each segment's shards once through every stored-byte check and
// copies votes straight from the shard payload into the view, which is
// allocated once at its final size, after the shards' sizes have confirmed
// the rows the sidecars claim (fits) — no per-record allocation or framing (a
// recordio record per vote would spend 12 bytes of framing on each 1-byte
// vote), no intermediate matrix per segment.
package lf

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"sync"

	"repro/internal/dfs"
	"repro/internal/labelmodel"
	"repro/internal/par"
)

// votesMagic heads every columnar vote shard ("DryBell Votes v1").
var votesMagic = [4]byte{'D', 'B', 'V', '1'}

// voteShardHeaderSize is magic + numLFs + numRows + crc32 + generation.
const voteShardHeaderSize = 24

// votesMeta is the JSON sidecar describing a columnar vote artifact.
type votesMeta struct {
	// Names lists the labeling functions in column order.
	Names []string `json:"names"`
	// Examples is the total row count across shards.
	Examples int `json:"examples"`
	// Shards is the shard count.
	Shards int `json:"shards"`
	// Generation tags one WriteVotes call; every shard must carry the
	// meta's generation, so an artifact torn by interleaved concurrent
	// writers (per-shard renames are individually atomic, the set is not)
	// is detected at read time instead of silently mixing columns.
	Generation uint64 `json:"generation"`
}

// votesMetaPath returns the meta sidecar path for a votes base.
func votesMetaPath(base string) string { return base + ".meta" }

// voteBufPool recycles shard payload buffers across WriteVotes calls, so
// persisting votes allocates amortized nothing beyond what the filesystem
// copies.
var voteBufPool = sync.Pool{New: func() any { return new([]byte) }}

// WriteVotes persists the matrix as a columnar vote artifact under base,
// with names[j] labeling column j. Shards are committed atomically and the
// meta sidecar is written last, so a partially written artifact is never
// loadable.
func WriteVotes(fs dfs.FS, base string, mx *labelmodel.Matrix, names []string, shards int) error {
	if mx == nil {
		return fmt.Errorf("lf: WriteVotes with nil matrix")
	}
	return writeVotes(fs, base, mx, names, shards, voteGeneration(mx, names, shards))
}

// writeVotes is WriteVotes with the write generation already derived. Shards
// are encoded, checksummed and published concurrently, one pooled buffer per
// worker; the meta sidecar follows once every shard stands.
func writeVotes(fs dfs.FS, base string, mx *labelmodel.Matrix, names []string, shards int, gen uint64) error {
	m, n := mx.NumExamples(), mx.NumFuncs()
	if len(names) != n {
		return fmt.Errorf("lf: WriteVotes got %d names for %d matrix columns", len(names), n)
	}
	if shards <= 0 {
		return fmt.Errorf("lf: WriteVotes with %d shards", shards)
	}
	if err := par.Each(shards, par.Procs(), func(s int) error {
		bufp := voteBufPool.Get().(*[]byte)
		defer voteBufPool.Put(bufp)
		rows := (m - s + shards - 1) / shards
		need := voteShardHeaderSize + rows*n
		buf := *bufp
		if cap(buf) < need {
			buf = make([]byte, need)
			*bufp = buf
		}
		buf = buf[:need]
		copy(buf[0:4], votesMagic[:])
		binary.LittleEndian.PutUint32(buf[4:8], uint32(n))
		binary.LittleEndian.PutUint32(buf[8:12], uint32(rows))
		binary.LittleEndian.PutUint64(buf[16:24], gen)
		payload := buf[voteShardHeaderSize:]
		for k := 0; k < rows; k++ {
			row := mx.Row(s + k*shards)
			// The checked encoder validates while it packs, so an
			// out-of-range vote fails the write instead of surfacing as a
			// reader error on some later run.
			if err := labelmodel.EncodeVotes(payload[k*n:(k+1)*n], row); err != nil {
				return fmt.Errorf("lf: write votes shard %d row %d: %w", s, k, err)
			}
		}
		binary.LittleEndian.PutUint32(buf[12:16], crc32.ChecksumIEEE(payload))
		if err := dfs.PublishShard(fs, base, s, shards, buf); err != nil {
			return fmt.Errorf("lf: write votes shard %d: %w", s, err)
		}
		return nil
	}); err != nil {
		return err
	}
	meta, err := json.Marshal(votesMeta{Names: names, Examples: m, Shards: shards, Generation: gen})
	if err != nil {
		return fmt.Errorf("lf: encode votes meta: %w", err)
	}
	if err := fs.WriteFile(votesMetaPath(base), meta); err != nil {
		return fmt.Errorf("lf: write votes meta: %w", err)
	}
	// Drop shards left behind by an earlier write with a different shard
	// count: a mixed set would make ListShards refuse the whole artifact. The
	// artifact is committed by now, and the next write drops any stray left.
	_ = dfs.RemoveShards(fs, base, shards)
	return nil
}

// voteGeneration derives a shard set's write generation from its content:
// shape, column names, and an FNV-1a digest of every vote. Writers of
// different matrices stamp different generations — so a torn set is detected
// at read time, and a generation-0 segment's key is its writer's own — while
// identical content produces identical bytes, re-run after re-run.
func voteGeneration(mx *labelmodel.Matrix, names []string, shards int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(shards))
	h.Write(b[:])
	for _, name := range names {
		binary.LittleEndian.PutUint64(b[:], uint64(len(name)))
		h.Write(b[:])
		h.Write([]byte(name))
	}
	binary.LittleEndian.PutUint64(b[:], mx.Fingerprint())
	h.Write(b[:])
	return h.Sum64()
}

// HasVotes reports whether generation 0 — the flat artifact or a generation-0
// segment — stands readable at base: whether a base run has executed there.
func HasVotes(fs dfs.FS, base string) bool {
	_, err := planVotes(fs, base, false, nil)
	return err == nil
}

// readVotesMeta reads and validates the meta sidecar of the shard set at
// base. A missing sidecar is (nil, nil) — "no artifact here" — so that only
// absence, never a failed or corrupt read, can be taken for an empty store.
func readVotesMeta(fs dfs.FS, base string) (*votesMeta, error) {
	raw, err := fs.ReadFile(votesMetaPath(base))
	if dfs.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lf: read votes meta: %w", err)
	}
	var meta votesMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("lf: decode votes meta at %s: %w", base, err)
	}
	if meta.Shards <= 0 || meta.Examples < 0 || len(meta.Names) == 0 {
		return nil, fmt.Errorf("lf: votes meta at %s is degenerate (%d shards, %d examples, %d names)",
			base, meta.Shards, meta.Examples, len(meta.Names))
	}
	return &meta, nil
}

// voteSegment is one stored shard set — the flat artifact or a generation's
// data segment — and where its rows land in the store's absolute
// (staging-order) row space.
type voteSegment struct {
	base     string
	meta     *votesMeta
	startRow int
	// cols pairs each wanted stored column with the view column it feeds; a
	// name requested twice gets two pairs, so every view column is written.
	cols []colPair
}

type colPair struct{ src, dst int }

// votePlan is what a read of the vote store will do, decided from metadata
// alone (sidecars and generation manifests) before any shard is opened.
type votePlan struct {
	base string
	// segments stream oldest first, so a later segment's votes supersede an
	// earlier one's wherever their rows and columns overlap.
	segments []voteSegment
	// chain holds the absolute row count and the final tombstone set.
	chain Chain
	// names are the view's columns: the requested names, or the stored
	// column union in first-seen order.
	names []string
	// flat is the flat artifact's write generation (0 without one) and gens
	// the generations over it — generation-0 segments, then deltas — in
	// order: what a view read from this plan has merged (see View).
	flat uint64
	gens []planGen
}

// view is mx as the view read from this plan, watermark included.
func (p *votePlan) view(mx *labelmodel.Matrix) *View {
	v := &View{Matrix: mx, Names: p.names, flat: p.flat}
	for _, g := range p.gens {
		v.gens = append(v.gens, g.genMark)
	}
	return v
}

// planGen is one generation of a plan: its identity in a watermark, what the
// chain rule made of it, and where the plan's segments stood before it.
type planGen struct {
	genMark
	// appended is Chain.Apply's report: rows at the chain's end and no
	// tombstones, so every earlier view row survives verbatim.
	appended bool
	// rows is the generation's data segment size; firstSeg indexes that
	// segment in the plan (the next generation's, when rows is zero).
	rows, firstSeg int
}

// planVotes plans a read of the store at base: generation 0 — the flat
// artifact as the segment at row 0, then the generation-0 segments — and,
// with wholeChain, every delta generation over it in ascending order. names
// selects and orders the view's columns (an unknown name is an error); nil
// selects the stored column union. A store with nothing in it is an error.
func planVotes(fs dfs.FS, base string, wholeChain bool, names []string) (*votePlan, error) {
	p := &votePlan{base: base, names: names}
	flat, err := readVotesMeta(fs, base)
	if err != nil {
		return nil, err
	}
	if flat != nil {
		p.segments = append(p.segments, voteSegment{base: base, meta: flat})
		p.chain.Rows = flat.Examples
		p.flat = flat.Generation
	}
	ms, err := listManifests(fs, base)
	if err != nil {
		return nil, err
	}
	for _, g := range ms {
		if g.Gen > 0 && !wholeChain {
			break // the listing is in chain order: generation 0 is done
		}
		appended, err := p.chain.Apply(g.Gen, g.StartRow, g.Rows, g.Deleted)
		if err != nil {
			return nil, fmt.Errorf("lf: votes at %s: %w", base, err)
		}
		p.gens = append(p.gens, planGen{genMark{gen: g.Gen, crc: g.CRC}, appended, g.Rows, len(p.segments)})
		if g.Rows == 0 {
			continue // deletions only: tombstones in the manifest, no data segment
		}
		meta, err := readVotesMeta(fs, g.key+".data")
		if err != nil {
			return nil, fmt.Errorf("lf: vote generation %s: data segment: %w", g.key, err)
		}
		if meta == nil {
			return nil, fmt.Errorf("lf: vote generation %s: data segment is missing", g.key)
		}
		if meta.Examples != g.Rows {
			return nil, fmt.Errorf("lf: vote generation %s holds %d rows, manifest says %d", g.key, meta.Examples, g.Rows)
		}
		if g.Gen == 0 && meta.Generation != g.at.hash {
			return nil, fmt.Errorf("lf: vote generation %s: data segment is from another write generation", g.key)
		}
		p.gens[len(p.gens)-1].data = meta.Generation
		p.segments = append(p.segments, voteSegment{base: g.key + ".data", meta: meta, startRow: g.StartRow})
	}
	if len(p.segments) == 0 {
		return nil, fmt.Errorf("lf: no vote artifact at %s (run ExecuteContext against this root first)", base)
	}

	var union []string
	stored := make(map[string]bool)
	for _, seg := range p.segments {
		for _, name := range seg.meta.Names {
			if !stored[name] {
				stored[name] = true
				union = append(union, name)
			}
		}
	}
	if names == nil {
		p.names = union
	}
	dsts := make(map[string][]int, len(p.names))
	for dst, name := range p.names {
		if !stored[name] {
			return nil, fmt.Errorf("lf: votes at %s have no column for %q (stored: %v)", base, name, union)
		}
		dsts[name] = append(dsts[name], dst)
	}
	for s := range p.segments {
		seg := &p.segments[s]
		for src, name := range seg.meta.Names {
			for _, dst := range dsts[name] {
				seg.cols = append(seg.cols, colPair{src, dst})
			}
		}
	}
	return p, nil
}

// read materializes the planned view in one allocation at its final size —
// live rows × requested columns — filled by one scan. Tombstoned rows and
// unrequested columns are never materialized; cells no segment votes on stay
// Abstain.
func (p *votePlan) read(fs dfs.FS) (*labelmodel.Matrix, []string, error) {
	if p.chain.Live() == 0 {
		return nil, nil, fmt.Errorf("lf: votes at %s: %w (%d rows stored)", p.base, ErrAllTombstoned, p.chain.Rows)
	}
	if err := p.fits(fs); err != nil {
		return nil, nil, err
	}
	view := labelmodel.NewMatrix(p.chain.Live(), len(p.names))
	if err := p.scan(fs, view); err != nil {
		return nil, nil, err
	}
	return view, p.names, nil
}

// fits checks, from the sizes of their shards alone, that the planned
// segments can hold the rows their sidecars claim — the claims a view is
// sized from, so it runs before any view is. A corrupt votes.meta claiming
// 2^40 rows over a four-row artifact then fails the read naming the segment,
// instead of asking the allocator for terabytes and ending the process. A
// part row counts as a row: a shard whose size is off by less than a row is
// the scan's to report, precisely.
func (p *votePlan) fits(fs dfs.FS) error {
	for _, seg := range p.segments {
		shards, err := dfs.ListShards(fs, seg.base)
		if err != nil {
			return fmt.Errorf("lf: list vote shards: %w", err)
		}
		n, held := len(seg.meta.Names), 0
		for _, shard := range shards {
			size, err := fs.Stat(shard)
			if err != nil {
				return fmt.Errorf("lf: stat votes shard: %w", err)
			}
			held += (max(0, int(size)-voteShardHeaderSize) + n - 1) / n
		}
		if seg.meta.Examples > held {
			return fmt.Errorf("lf: votes at %s: its %d shards hold %d rows, meta says %d",
				seg.base, len(shards), held, seg.meta.Examples)
		}
	}
	return nil
}

// scan is the one loop over stored vote shards. It streams every planned
// segment, oldest first, through every stored-byte check — shard count
// against the sidecar, header, write generation, payload size and checksum
// (checkVoteShard), vote-byte range, row accounting — and copies each live
// row's planned columns straight from the shard payload into its view row. A
// nil view verifies without materializing anything; a non-nil one must have a
// row per live row of the chain and a column per planned column.
func (p *votePlan) scan(fs dfs.FS, view *labelmodel.Matrix) error {
	// viewRow[i-lo] is the view row of absolute row i, -1 once tombstoned,
	// for the rows at and past lo, where the earliest planned segment starts
	// (a plan that starts after a watermark streams only the chain's tail);
	// nil means no tombstones, absolute rows are view rows.
	var viewRow []int
	lo := 0
	if view != nil && p.chain.Live() < p.chain.Rows {
		lo = p.chain.Rows
		for _, seg := range p.segments {
			lo = min(lo, seg.startRow)
		}
		next := lo
		//drybellvet:ordered — counts only; the total is the same in any order
		for d := range p.chain.tombs {
			if d < lo {
				next--
			}
		}
		viewRow = make([]int, p.chain.Rows-lo)
		for i := range viewRow {
			viewRow[i] = -1
			if !p.chain.Tombstoned(lo + i) {
				viewRow[i] = next
				next++
			}
		}
	}
	for _, seg := range p.segments {
		meta := seg.meta
		shards, err := dfs.ListShards(fs, seg.base)
		if err != nil {
			return fmt.Errorf("lf: list vote shards: %w", err)
		}
		if len(shards) != meta.Shards {
			return fmt.Errorf("lf: votes at %s: %d shards on filesystem, meta says %d", seg.base, len(shards), meta.Shards)
		}
		stored := len(meta.Names)
		// The normal case — the view's columns are the segment's, in order —
		// decodes a row in one table pass instead of a store per column pair.
		identity := view != nil && stored == view.NumFuncs() && len(seg.cols) == stored
		for j := 0; identity && j < stored; j++ {
			identity = seg.cols[j] == colPair{j, j}
		}
		scratch := make([]labelmodel.Label, stored)
		total := 0
		for s, shard := range shards {
			data, err := fs.ReadFile(shard)
			if err != nil {
				return fmt.Errorf("lf: read votes shard: %w", err)
			}
			rows, err := checkVoteShard(shard, data, stored, meta.Generation)
			if err != nil {
				return err
			}
			total += rows
			payload := data[voteShardHeaderSize:]
			for k := 0; k < rows; k++ {
				i := s + k*meta.Shards
				if i >= meta.Examples {
					return fmt.Errorf("lf: votes shard %s: row %d maps past %d examples", shard, k, meta.Examples)
				}
				// Every stored row is range-checked, kept or not: a tombstoned
				// or verify-only row decodes into scratch.
				dst := scratch
				r := -1
				if view != nil {
					r = seg.startRow + i
					if viewRow != nil {
						r = viewRow[r-lo]
					}
					if r >= 0 && identity {
						dst = view.Row(r)
					}
				}
				rec := payload[k*stored : (k+1)*stored]
				if src := labelmodel.DecodeVotes(dst, rec); src >= 0 {
					return fmt.Errorf("lf: votes shard %s: stored vote byte %d out of range for %q",
						shard, int8(rec[src]), meta.Names[src])
				}
				if r >= 0 && !identity {
					row := view.Row(r)
					for _, c := range seg.cols {
						row[c.dst] = scratch[c.src]
					}
				}
			}
		}
		if total != meta.Examples {
			return fmt.Errorf("lf: votes at %s hold %d rows, meta says %d", seg.base, total, meta.Examples)
		}
	}
	return nil
}

// readVotes is the store's one read. Over the whole chain it returns the
// compacted view: later generations supersede earlier rows in their row range
// column-wise — columns they carry are overwritten, columns they don't keep
// the older votes — and tombstoned rows are absent, later rows shifted down.
func readVotes(fs dfs.FS, base string, wholeChain bool, names []string) (*labelmodel.Matrix, []string, error) {
	p, err := planVotes(fs, base, wholeChain, names)
	if err != nil {
		return nil, nil, err
	}
	return p.read(fs)
}

// ReadVotes loads generation 0 of the store at base — the flat columnar
// artifact and the generation-0 segments over it, whatever delta generations
// stand over those. When names is nil the full matrix is returned in stored
// column order; otherwise column j of the result holds the votes of names[j],
// selecting and reordering the stored columns (an unknown name is an error).
func ReadVotes(fs dfs.FS, base string, names []string) (*labelmodel.Matrix, []string, error) {
	return readVotes(fs, base, false, names)
}

// VerifyVotes checks the integrity of the whole store at base — the flat
// artifact and every generation over it, by the same plan and scan as a read
// — without materializing the matrix, and returns the stored column union.
func VerifyVotes(fs dfs.FS, base string) ([]string, error) {
	p, err := planVotes(fs, base, true, nil)
	if err != nil {
		return nil, err
	}
	return p.names, p.scan(fs, nil)
}

// checkVoteShard validates a shard's header, generation, and checksum,
// returning its row count.
func checkVoteShard(path string, data []byte, n int, gen uint64) (int, error) {
	if len(data) < voteShardHeaderSize {
		return 0, fmt.Errorf("lf: votes shard %s truncated (%d bytes)", path, len(data))
	}
	if [4]byte(data[0:4]) != votesMagic {
		return 0, fmt.Errorf("lf: votes shard %s has bad magic %q", path, data[0:4])
	}
	gotLFs := int(binary.LittleEndian.Uint32(data[4:8]))
	rows := int(binary.LittleEndian.Uint32(data[8:12]))
	if gotLFs != n {
		return 0, fmt.Errorf("lf: votes shard %s holds %d columns, meta says %d", path, gotLFs, n)
	}
	if got := binary.LittleEndian.Uint64(data[16:24]); got != gen {
		return 0, fmt.Errorf("lf: votes shard %s is from another write generation (torn concurrent writes)", path)
	}
	payload := data[voteShardHeaderSize:]
	if len(payload) != rows*n {
		return 0, fmt.Errorf("lf: votes shard %s payload is %d bytes, want %d rows × %d", path, len(payload), rows, n)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[12:16]) {
		return 0, fmt.Errorf("lf: votes shard %s checksum mismatch", path)
	}
	return rows, nil
}
