package mapreduce

import (
	"encoding/json"
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
	full [][]byte
	cur  []byte
	size int // bytes in full and cur
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
	w.count++
	return nil
}

// Count returns the number of records appended so far.
func (w *InputWriter) Count() int { return w.count }

// stagedCount is the sidecar InputWriter.Commit writes last: the set's commit
// record. It holds the record count plus each shard's byte size, so a reader
// checks with Stat calls, not a scan, that it describes the shards on the
// filesystem.
type stagedCount struct {
	Records int     `json:"records"`
	Sizes   []int64 `json:"sizes"`
}

// Commit publishes all n shards, each atomically, under the commit record
// base+".count": it removes the old record before it replaces any shard, then
// drops shards of any other shard count, then writes the new record last. A
// crash part-way leaves no record, so StagedCount reports the set not staged
// instead of trusting a mix of old and new shards. A one-block shard is
// published as it is; a longer one is joined into one scratch buffer that
// every such shard reuses, which dfs.FS.WriteFile, never retaining what it is
// handed, allows.
func (w *InputWriter) Commit() error {
	if err := w.fs.Remove(w.base + ".count"); err != nil && !dfs.IsNotExist(err) {
		return err
	}
	longest := 0
	for _, b := range w.shards {
		if len(b.full) > 0 {
			longest = max(longest, b.size)
		}
	}
	scratch := make([]byte, 0, longest)
	sizes := make([]int64, w.n)
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
		sizes[i] = int64(b.size)
	}
	if err := dfs.RemoveShards(w.fs, w.base, w.n); err != nil {
		return err
	}
	data, err := json.Marshal(stagedCount{Records: w.count, Sizes: sizes})
	if err != nil {
		return err
	}
	return w.fs.WriteFile(w.base+".count", data)
}

// StagedCount returns the record count of the shard set committed at base:
// the count its commit record holds, trusted only while the record matches
// the shards (shard count and per-shard sizes, via Stat). A set with no
// record, or one that no longer matches, is not staged.
func StagedCount(fs dfs.FS, base string) (int, error) {
	data, err := fs.ReadFile(base + ".count")
	if err != nil {
		return 0, fmt.Errorf("mapreduce: %s is not staged: %w", base, err)
	}
	var sc stagedCount
	if err := json.Unmarshal(data, &sc); err != nil || sc.Records < 0 || len(sc.Sizes) == 0 {
		return 0, fmt.Errorf("mapreduce: %s is not staged: unreadable commit record", base)
	}
	for i, want := range sc.Sizes {
		if got, err := fs.Stat(dfs.ShardPath(base, i, len(sc.Sizes))); err != nil || got != want {
			return 0, fmt.Errorf("mapreduce: %s is not staged: shard %d of %d does not match its commit record", base, i, len(sc.Sizes))
		}
	}
	return sc.Records, nil
}

// EachShard reads and decodes the committed shard set at base, handing visit
// shard s of n and its records in shard order until visit returns false. The
// records of a shard are checked and handed over in place (recordio.Split):
// they share the one buffer the shard was read into.
func EachShard(fs dfs.FS, base string, visit func(s, n int, recs [][]byte) bool) error {
	shards, err := dfs.ListShards(fs, base)
	if err != nil {
		return err
	}
	for s, shard := range shards {
		data, err := fs.ReadFile(shard)
		if err != nil {
			return err
		}
		recs, err := recordio.Split(data)
		if err != nil {
			return fmt.Errorf("mapreduce: shard %s: %w", shard, err)
		}
		if !visit(s, len(shards), recs) {
			break
		}
	}
	return nil
}

// ReadStaged reads the shard set committed at base (see StagedCount) back in
// staging order: record k is the k/n-th record of shard k%n.
func ReadStaged(fs dfs.FS, base string) ([][]byte, error) {
	count, err := StagedCount(fs, base)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, count)
	total, last := 0, -1
	err = EachShard(fs, base, func(s, n int, recs [][]byte) bool {
		total += len(recs)
		for r, rec := range recs {
			k := s + r*n
			if k < count {
				out[k] = rec
			}
			last = max(last, k)
		}
		return true
	})
	// count records in distinct slots below count, or a shard is longer or
	// shorter than round-robin staging made it.
	if err == nil && (total != count || last >= count) {
		err = fmt.Errorf("mapreduce: staged shards at %s are inconsistent (%d records, highest index %d, commit record %d)", base, total, last, count)
	}
	return out, err
}
