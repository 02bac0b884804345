// Columnar vote artifact: the label matrix Λ persisted as one sharded,
// byte-per-vote file set — the only layout votes are written in or read
// from — and the one reader of the vote store.
//
// A shard set stores a matrix once under its base: shard s holds the vote
// rows of examples s, s+N, s+2N, … (the same round-robin layout as the staged
// input), each row exactly n bytes, one byte per vote, after a 4-byte magic
// and nothing else. The set's commit record (dfs.Record) holds everything
// else: the labeling functions in column order, so a reader can select and
// reorder columns by name; the row count; each shard's size and payload CRC,
// which rejects a shard another write left behind; and, for a generation, its
// row range and tombstones. A vote task emits its shard (assembleVotes) and
// the store publishes it as it stands; a matrix is encoded into pooled
// buffers. The flat artifact at "<prefix>/votes" is one such set, written by
// compaction; every generation is another (generations.go).
//
// Every read of the store — generation 0 alone (ReadVotes, the resume fast
// path) or the whole chain (LoadMatrix, VerifyVotes, CompactView) — is the
// same two steps. planVotes builds a plan from metadata alone: the segment
// list, the column union, the rows the chain covers and its final tombstone
// set, and which stored column feeds which requested column. scan then
// streams each segment's shards once through every stored-byte check and
// copies votes straight from the shard payload into the view, which is
// allocated once at its final size, after the shards' sizes have confirmed
// the rows the commit records claim (statShards) — no per-record allocation
// or framing (a recordio record per vote would spend 12 bytes of framing on
// each 1-byte vote), no intermediate matrix per segment.
package lf

import (
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"slices"
	"sync"

	"repro/internal/dfs"
	"repro/internal/labelmodel"
	"repro/internal/par"
	"repro/internal/recordio"
)

// votesMagic heads every columnar vote shard ("DryBell Votes v2"). Version 1
// shards, which repeated their record's fields in a 24-byte header, are
// refused.
var votesMagic = [4]byte{'D', 'B', 'V', '2'}

// voteShardHeaderSize is the magic's: all a shard holds besides its votes.
const voteShardHeaderSize = 4

// voteBlockMax bounds a value of a vote task's output, one recordio record in
// its checkpoint: a task emits a larger shard as values of whole rows, only
// the first carrying the magic (fusedTask.MapBatch).
var voteBlockMax = recordio.MaxRecordSize

// voteBlock sizes *bufp to a vote shard of rows n-vote rows, votesMagic then
// the rows the caller fills, and returns it and its payload.
func voteBlock(bufp *[]byte, rows, n int) (block, payload []byte) {
	need := voteShardHeaderSize + rows*n
	block = slices.Grow((*bufp)[:0], need)[:need]
	*bufp = block
	copy(block, votesMagic[:])
	return block, block[voteShardHeaderSize:]
}

// voteBufPool recycles the buffers vote shards are built in (voteBlock), so
// building one allocates amortized nothing beyond what emit or a write copies.
var voteBufPool = sync.Pool{New: func() any { return new([]byte) }}

// voteSet is a vote shard set ready to publish: rec names its columns and
// holds its rows and, for a generation, its row range and tombstones.
// block(s, buf) returns shard s with its size and payload CRC: the block a
// vote task emitted (assembleVotes) or one encoded into buf (matrixSet).
type voteSet struct {
	rec    dfs.Record
	shards int
	block  func(s int, buf *[]byte) ([]byte, dfs.ShardSum, error)
}

// matrixSet is mx, or zero rows if nil, as a set of shards shards committed
// with rec, whose Names label mx's columns. Each block is encoded when asked
// for, by the checked encoder: an out-of-range vote fails the write.
func matrixSet(mx *labelmodel.Matrix, shards int, rec dfs.Record) voteSet {
	n := len(rec.Names)
	if mx != nil {
		rec.Rows = mx.NumExamples()
	}
	return voteSet{rec: rec, shards: shards, block: func(s int, bufp *[]byte) ([]byte, dfs.ShardSum, error) {
		if mx != nil && mx.NumFuncs() != n {
			return nil, dfs.ShardSum{}, fmt.Errorf("lf: WriteVotes got %d names for %d matrix columns", n, mx.NumFuncs())
		}
		rows := shardRows(rec.Rows, s, shards)
		buf, payload := voteBlock(bufp, rows, n)
		for k := 0; k < rows; k++ {
			if err := labelmodel.EncodeVotes(payload[k*n:(k+1)*n], mx.Row(s+k*shards)); err != nil {
				return nil, dfs.ShardSum{}, fmt.Errorf("lf: write votes shard %d row %d: %w", s, k, err)
			}
		}
		return buf, dfs.ShardSum{Size: int64(len(buf)), Digest: crc32.ChecksumIEEE(payload)}, nil
	}}
}

// WriteVotes persists the matrix as a columnar vote artifact under base,
// with names[j] labeling column j.
func WriteVotes(fs dfs.FS, base string, mx *labelmodel.Matrix, names []string, shards int) error {
	if mx == nil {
		return fmt.Errorf("lf: WriteVotes with nil matrix")
	}
	_, err := matrixSet(mx, shards, dfs.Record{Names: names}).publish(fs, base)
	return err
}

// publish is the vote store's one writer: it writes the set's blocks as the
// shards at base, concurrently and each atomically, then commits them with the
// set's record, every block's size and CRC added, and returns it. The record
// comes last, so a partially written set is never loadable.
func (v voteSet) publish(fs dfs.FS, base string) (dfs.Record, error) {
	rec := v.rec
	if v.shards <= 0 {
		return rec, fmt.Errorf("lf: write votes with %d shards", v.shards)
	}
	rec.Shards = make([]dfs.ShardSum, v.shards)
	if err := par.Each(v.shards, par.Procs(), func(s int) error {
		bufp := voteBufPool.Get().(*[]byte)
		defer voteBufPool.Put(bufp)
		block, sum, err := v.block(s, bufp)
		if err != nil {
			return err
		}
		rec.Shards[s] = sum
		if err := dfs.PublishShard(fs, base, s, v.shards, block); err != nil {
			return fmt.Errorf("lf: write votes shard %d: %w", s, err)
		}
		return nil
	}); err != nil {
		return rec, err
	}
	rec, err := dfs.WriteRecord(fs, base, rec)
	if err != nil {
		return rec, fmt.Errorf("lf: commit votes: %w", err)
	}
	// Drop shards left behind by an earlier write with a different shard
	// count, which no reader looks at: the commit record names the set. The
	// artifact is committed by now, and the next write drops any stray left.
	_ = dfs.RemoveShards(fs, base, v.shards)
	return rec, nil
}

// voteGeneration is a generation-0 segment's content hash, the last part of
// its key: FNV-1a over the set's names and its record's set digest (rows,
// shards, every block's size and payload CRC-32), known before any shard is
// written. Writers of different votes share a key only if every differing
// shard's CRC-32 collides (about 2^-32 each; never within 32 consecutive
// bits), and two such at once would leave shards checkVoteShard takes from
// either.
func voteGeneration(v voteSet) (uint64, error) {
	rec := v.rec
	if len(rec.Shards) != v.shards {
		rec.Shards = make([]dfs.ShardSum, v.shards)
		var buf []byte
		for s := range rec.Shards {
			var err error
			if _, rec.Shards[s], err = v.block(s, &buf); err != nil {
				return 0, err
			}
		}
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%q %x", rec.Names, rec.Sealed().Digest)
	return h.Sum64(), nil
}

// HasVotes reports whether generation 0 — the flat artifact or a generation-0
// segment — stands readable at base: whether a base run has executed there.
func HasVotes(fs dfs.FS, base string) bool {
	_, err := planVotes(fs, base, false, nil)
	return err == nil
}

// readVoteRecord reads the commit record of the vote shard set at base and
// checks that it describes one: columns named, and every shard the size of a
// magic and its round-robin rows' votes, so a claim the sizes cannot back
// (2^40 rows over four) is refused before any view is sized from it. A
// missing record is (nil, nil): only absence reads as an empty store.
func readVoteRecord(fs dfs.FS, base string) (*dfs.Record, error) {
	rec, err := dfs.ReadRecord(fs, base)
	if dfs.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lf: votes at %s: %w", base, err)
	}
	n, nsh := len(rec.Names), len(rec.Shards)
	if n == 0 {
		return nil, fmt.Errorf("lf: votes at %s: commit record names no columns", base)
	}
	for s, sum := range rec.Shards {
		rows, size := int64(shardRows(rec.Rows, s, nsh)), sum.Size-voteShardHeaderSize
		if size < 0 || size%int64(n) != 0 || size/int64(n) != rows {
			return nil, fmt.Errorf("lf: votes at %s: shard %s is %d bytes, not %d rows of %d votes (commit record of %d rows)",
				base, dfs.ShardPath(base, s, nsh), sum.Size, rows, n, rec.Rows)
		}
	}
	return rec, nil
}

// shardRows is the number of rows shard s of n holds in the round-robin
// layout of m rows: those of rows s, s+n, s+2n, ….
func shardRows(m, s, n int) int { return (m - s + n - 1) / n }

// voteSegment is one stored shard set — the flat artifact or a generation —
// and where its rows land in the store's absolute (staging-order) row space.
type voteSegment struct {
	base     string
	rec      *dfs.Record
	startRow int
	// cols pairs each wanted stored column with the view column it feeds; a
	// name requested twice gets two pairs, so every view column is written.
	cols []colPair
}

type colPair struct{ src, dst int }

// votePlan is what a read of the vote store will do, decided from its commit
// records alone before any shard is opened.
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
	// flat is the flat artifact's record checksum (0 without one) and gens
	// the generations over it — generation-0 segments, then deltas — in
	// order: what a view read from this plan has merged (see View). Each
	// generation is one segment, the plan's last len(gens).
	flat uint32
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
// chain rule made of it, and its row count.
type planGen struct {
	genMark
	// appended is Chain.Apply's report: rows at the chain's end and no
	// tombstones, so every earlier view row survives verbatim.
	appended bool
	rows     int
}

// planVotes plans a read of the store at base: generation 0 — the flat
// artifact as the segment at row 0, then the generation-0 segments — and,
// with wholeChain, every delta generation over it in ascending order. names
// selects and orders the view's columns (an unknown name is an error); nil
// selects the stored column union. A store with nothing in it is an error.
func planVotes(fs dfs.FS, base string, wholeChain bool, names []string) (*votePlan, error) {
	p := &votePlan{base: base, names: names}
	flat, err := readVoteRecord(fs, base)
	if err != nil {
		return nil, err
	}
	if flat != nil {
		if _, err := p.chain.Apply(0, flat.StartRow, flat.Rows, flat.Deleted); err != nil {
			return nil, fmt.Errorf("lf: votes at %s: %w", base, err)
		}
		p.segments = append(p.segments, voteSegment{base: base, rec: flat})
		p.flat = flat.Checksum
	}
	keys, _, err := listKeys(fs, base, true)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		if k.gen > 0 && !wholeChain {
			break // the listing is in chain order: generation 0 is done
		}
		seg := k.path(base)
		rec, err := readVoteRecord(fs, seg)
		if err == nil && rec == nil {
			err = fmt.Errorf("lf: votes at %s: commit record vanished", seg)
		}
		if err != nil {
			return nil, err
		}
		appended, err := p.chain.Apply(k.gen, rec.StartRow, rec.Rows, rec.Deleted)
		if err != nil {
			return nil, fmt.Errorf("lf: votes at %s: %w", seg, err)
		}
		p.gens = append(p.gens, planGen{genMark{k.gen, rec.Checksum}, appended, rec.Rows})
		p.segments = append(p.segments, voteSegment{base: seg, rec: rec, startRow: rec.StartRow})
	}
	if len(p.segments) == 0 {
		return nil, fmt.Errorf("lf: no vote artifact at %s (run ExecuteContext against this root first)", base)
	}

	var union []string
	stored := make(map[string]bool)
	for _, seg := range p.segments {
		for _, name := range seg.rec.Names {
			if !stored[name] && seg.rec.Rows > 0 { // a zero-row set stores no column
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
		for src, name := range seg.rec.Names {
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
	if err := p.statShards(fs); err != nil {
		return nil, nil, err
	}
	view := labelmodel.NewMatrix(p.chain.Live(), len(p.names))
	if err := p.scan(fs, view); err != nil {
		return nil, nil, err
	}
	return view, p.names, nil
}

// statShards confirms with one Stat per shard that every planned segment's
// shards stand at the sizes its commit record gives — sizes readVoteRecord
// has matched to the rows the record claims, which a view is sized from — so
// it runs before any view is. A record claiming 2^40 rows over shards that
// hold four then fails the read naming the segment, instead of asking the
// allocator for terabytes and ending the process.
func (p *votePlan) statShards(fs dfs.FS) error {
	for _, seg := range p.segments {
		if err := seg.rec.Stat(fs, seg.base); err != nil {
			return fmt.Errorf("lf: votes at %s: %w", seg.base, err)
		}
	}
	return nil
}

// scan is the one loop over stored vote shards. It streams every planned
// segment, oldest first, through every stored-byte check — size, magic and
// payload checksum against the commit record (checkVoteShard), vote-byte
// range — and copies each live
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
		rec := seg.rec
		stored, nsh := len(rec.Names), len(rec.Shards)
		// The normal case — the view's columns are the segment's, in order —
		// decodes a row in one table pass instead of a store per column pair.
		identity := view != nil && stored == view.NumFuncs() && len(seg.cols) == stored
		for j := 0; identity && j < stored; j++ {
			identity = seg.cols[j] == colPair{j, j}
		}
		scratch := make([]labelmodel.Label, stored)
		for s := range rec.Shards {
			shard := dfs.ShardPath(seg.base, s, nsh)
			data, err := fs.ReadFile(shard)
			if err != nil {
				return fmt.Errorf("lf: read votes shard: %w", err)
			}
			rows, err := checkVoteShard(shard, data, rec, s)
			if err != nil {
				return err
			}
			payload := data[voteShardHeaderSize:]
			for k := 0; k < rows; k++ {
				i := s + k*nsh
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
				votes := payload[k*stored : (k+1)*stored]
				if src := labelmodel.DecodeVotes(dst, votes); src >= 0 {
					return fmt.Errorf("lf: votes shard %s: stored vote byte %d out of range for %q",
						shard, int8(votes[src]), rec.Names[src])
				}
				if r >= 0 && !identity {
					row := view.Row(r)
					for _, c := range seg.cols {
						row[c.dst] = scratch[c.src]
					}
				}
			}
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

// checkVoteShard validates shard s of the set rec commits — its size, its
// magic, and its payload's CRC against the digest rec holds for it —
// returning its row count.
func checkVoteShard(path string, data []byte, rec *dfs.Record, s int) (int, error) {
	if int64(len(data)) != rec.Shards[s].Size {
		return 0, fmt.Errorf("lf: votes shard %s is %d bytes: does not match its commit record (%d)", path, len(data), rec.Shards[s].Size)
	}
	if [4]byte(data[0:4]) != votesMagic {
		return 0, fmt.Errorf("lf: votes shard %s has bad magic %q", path, data[0:4])
	}
	if crc32.ChecksumIEEE(data[voteShardHeaderSize:]) != rec.Shards[s].Digest {
		return 0, fmt.Errorf("lf: votes shard %s checksum mismatch: its payload does not match its commit record's digest", path)
	}
	return shardRows(rec.Rows, s, len(rec.Shards)), nil
}
