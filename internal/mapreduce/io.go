package mapreduce

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dfs"
	"repro/internal/recordio"
)

// WriteInput stages records into n recordio shards under base through an
// InputWriter, in one call.
//
//drybellvet:testapi — tests stage fixed record sets with it
func WriteInput(fs dfs.FS, base string, records [][]byte, n int) error {
	w, err := NewInputWriter(fs, base, n)
	if err != nil {
		return err
	}
	w.Grow(recordio.EncodedSize(records))
	for _, rec := range records {
		if err := w.Append(rec); err != nil {
			return err
		}
	}
	return w.Commit()
}

// InputWriter stages a record stream into n recordio shards without holding
// the records in one slice: record k goes to shard k%n, a round-robin layout
// from which per-shard task outputs restore input order. It is the one writer
// of staged shard sets: the input, its deltas and the labels. Append frames a
// record once, straight into its shard's current block. A block that has no
// room for the next frame is kept as it is and a new one started, twice the
// size of the last (from firstBlock, up to maxBlock), so nothing is ever
// copied to grow and a small stream allocates little. The FS contract is
// whole-file writes, so the blocks are held until Commit — peak memory is the
// encoded corpus, not the decoded examples plus a record slice — and Commit
// publishes every shard atomically; an abandoned writer leaves no visible
// files, and a cut-off Commit leaves a set without its commit record.
type InputWriter struct {
	fs     dfs.FS
	base   string
	n      int
	count  int
	shards []blocks
}

// blocks is one shard's frames: the filled blocks, then the one being filled.
type blocks struct {
	full   [][]byte
	cur    []byte
	size   int    // bytes in full and cur
	digest uint32 // the frames' checksums so far, folded as Record says
}

const firstBlock, maxBlock = 4 << 10, 256 << 10

// room makes sure the current block has room for need more bytes, starting a
// block of at least need bytes when it has not.
func (b *blocks) room(need int) {
	if cap(b.cur)-len(b.cur) >= need {
		return
	}
	size := firstBlock
	if b.cur != nil {
		size = min(2*cap(b.cur), maxBlock)
	}
	if len(b.cur) > 0 {
		b.full = append(b.full, b.cur)
	}
	b.cur = make([]byte, 0, max(size, need))
}

// NewInputWriter prepares a streaming staging writer for n shards under base.
func NewInputWriter(fs dfs.FS, base string, n int) (*InputWriter, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mapreduce: NewInputWriter with %d shards", n)
	}
	return &InputWriter{fs: fs, base: base, n: n, shards: make([]blocks, n)}, nil
}

// Grow tells the writer that about size more encoded bytes (recordio.EncodedSize
// of the records to come) are on their way. Before the first Append it sizes
// each shard's first block for the shard's share, so the shard is one block
// published as it is.
func (w *InputWriter) Grow(size int) {
	// Round-robin shares differ by a record or so; the slack keeps the
	// longest inside its block.
	share := size/w.n + size/(32*w.n) + 4096
	for i := range w.shards {
		w.shards[i].room(share)
	}
}

// Append adds one record to the stream.
func (w *InputWriter) Append(rec []byte) error {
	if len(rec) > recordio.MaxRecordSize {
		return recordio.ErrTooLarge // before room allocates a block for it
	}
	b := &w.shards[w.count%w.n]
	b.room(recordio.HeaderSize + len(rec))
	var err error
	if b.cur, err = recordio.AppendFrame(b.cur, rec); err != nil {
		return err
	}
	b.size += recordio.HeaderSize + len(rec)
	b.digest = (b.digest ^ binary.LittleEndian.Uint32(b.cur[len(b.cur)-len(rec)-4:])) * 16777619
	w.count++
	return nil
}

// Count returns the number of records appended so far.
func (w *InputWriter) Count() int { return w.count }

// Record returns the commit record Commit writes: the record count and each
// shard's size and digest. A shard's digest folds its frames' checksums in
// order, d = (d ^ crc) × 16777619 (FNV-1a's prime, a word at a time) from 0,
// as Append frames them — no pass over the shard's bytes.
func (w *InputWriter) Record() dfs.Record {
	shards := make([]dfs.ShardSum, w.n)
	for i, b := range w.shards {
		shards[i] = dfs.ShardSum{Size: int64(b.size), Digest: b.digest}
	}
	return dfs.Record{Rows: w.count, Shards: shards}.Sealed()
}

// Commit publishes all n shards, each atomically, under the set's commit
// record (dfs.WriteRecord): it removes the old record before it replaces any
// shard, then drops shards of any other shard count, then writes the new
// record last. A crash part-way leaves no record, so the set reads as not
// staged instead of as a mix of old and new shards. A one-block shard is
// published as it is; a longer one is joined into one scratch buffer that
// every such shard reuses, which dfs.FS.WriteFile, never retaining what it is
// handed, allows.
func (w *InputWriter) Commit() error {
	if err := w.fs.Remove(dfs.RecordPath(w.base)); err != nil && !dfs.IsNotExist(err) {
		return err
	}
	longest := 0
	for _, b := range w.shards {
		if len(b.full) > 0 {
			longest = max(longest, b.size)
		}
	}
	scratch := make([]byte, 0, longest)
	for i, b := range w.shards {
		data := b.cur
		if len(b.full) > 0 {
			data = scratch[:0]
			for _, f := range b.full {
				data = append(data, f...)
			}
			data = append(data, b.cur...)
		}
		if err := dfs.PublishShard(w.fs, w.base, i, w.n, data); err != nil {
			return err
		}
	}
	if err := dfs.RemoveShards(w.fs, w.base, w.n); err != nil {
		return err
	}
	_, err := dfs.WriteRecord(w.fs, w.base, w.Record())
	return err
}

// EachShard reads and decodes the shard set committed at base, handing visit
// shard s of n and its records in shard order until visit returns false, and
// returns the set's commit record. Each shard must be the size the record
// gives it. The records of a shard are checked and handed over in place
// (recordio.Split): they share the one buffer the shard was read into.
func EachShard(fs dfs.FS, base string, visit func(s, n int, recs [][]byte) bool) (*dfs.Record, error) {
	rec, err := dfs.ReadRecord(fs, base)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: %s is not staged: %w", base, err)
	}
	n := len(rec.Shards)
	for s, sum := range rec.Shards {
		data, err := fs.ReadFile(dfs.ShardPath(base, s, n))
		if err != nil {
			return nil, fmt.Errorf("mapreduce: shard %d of %s: %w", s, base, err)
		}
		if int64(len(data)) != sum.Size {
			return nil, fmt.Errorf("mapreduce: %s is not staged: shard %d of %d does not match its commit record", base, s, n)
		}
		recs, err := recordio.Split(data)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: shard %d of %s: %w", s, base, err)
		}
		if !visit(s, n, recs) {
			break
		}
	}
	return rec, nil
}

// ReadStaged reads the shard set committed at base back in staging order:
// record k is the k/n-th record of shard k%n. The set must be exactly what
// round-robin staging of its commit record's count makes.
func ReadStaged(fs dfs.FS, base string) ([][]byte, error) {
	var shards [][][]byte
	rec, err := EachShard(fs, base, func(_, _ int, recs [][]byte) bool {
		shards = append(shards, recs)
		return true
	})
	if err != nil {
		return nil, err
	}
	count, n, total, last := rec.Rows, len(shards), 0, -1
	out := make([][]byte, count)
	for s, recs := range shards {
		total += len(recs)
		for r, x := range recs {
			k := s + r*n
			if k < count {
				out[k] = x
			}
			last = max(last, k)
		}
	}
	// count records in distinct slots below count, or a shard is longer or
	// shorter than round-robin staging made it.
	if total != count || last >= count {
		return nil, fmt.Errorf("mapreduce: staged shards at %s are inconsistent (%d records, highest index %d, commit record %d)", base, total, last, count)
	}
	return out, nil
}
