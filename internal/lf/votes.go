// Columnar vote artifact: the label matrix Λ persisted as one sharded,
// byte-per-vote file set — the only layout votes are written in or read
// from.
//
// The artifact stores the whole matrix once under "<prefix>/votes": shard s
// holds the vote rows of examples s, s+N, s+2N, … (the same round-robin
// layout as the staged input), each row exactly n bytes, one byte per vote,
// with a CRC32 over the payload. A JSON meta file records the
// labeling-function names in column order, so a resumed pipeline can select
// and reorder columns by name. Readers copy votes straight into the matrix —
// no per-record allocation or framing (a recordio record per vote would
// spend 12 bytes of framing on each 1-byte vote) — and writers rent shard
// buffers from a pool.
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
	m, n := mx.NumExamples(), mx.NumFuncs()
	if len(names) != n {
		return fmt.Errorf("lf: WriteVotes got %d names for %d matrix columns", len(names), n)
	}
	if shards <= 0 {
		return fmt.Errorf("lf: WriteVotes with %d shards", shards)
	}
	gen := voteGeneration(mx, names, shards)
	bufp := voteBufPool.Get().(*[]byte)
	defer voteBufPool.Put(bufp)
	for s := 0; s < shards; s++ {
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
	}
	meta, err := json.Marshal(votesMeta{Names: names, Examples: m, Shards: shards, Generation: gen})
	if err != nil {
		return fmt.Errorf("lf: encode votes meta: %w", err)
	}
	if err := fs.WriteFile(votesMetaPath(base), meta); err != nil {
		return fmt.Errorf("lf: write votes meta: %w", err)
	}
	// Drop shards left behind by an earlier write with a different shard
	// count: a mixed set would make ListShards refuse the whole artifact
	// forever. Removal races with concurrent writers are repaired by their
	// verify-and-retry loop (see publishVotes).
	if stale, err := fs.List(base + "-"); err == nil {
		for _, p := range stale {
			if b, _, count, ok := dfs.ParseShardPath(p); ok && b == base && count != shards {
				_ = fs.Remove(p)
			}
		}
	}
	return nil
}

// voteGeneration derives the artifact's write generation from its content:
// shape, column names, and an FNV-1a digest of every vote. A generation
// used to be drawn from the global math/rand, which made every run's
// artifact differ in 8 header bytes per shard and broke the byte-identical
// re-run guarantee the fault suite enforces everywhere else. Hashing the
// content keeps the property the generation exists for — interleaved
// concurrent writers of different matrices still stamp different
// generations, so a torn artifact is detected at read time — while
// identical content now produces identical bytes (two writers racing the
// same matrix produce interchangeable shards, so mixing them is harmless).
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

// HasVotes reports whether a columnar vote artifact exists at base.
func HasVotes(fs dfs.FS, base string) bool {
	_, err := fs.Stat(votesMetaPath(base))
	return err == nil
}

// VoteNames returns the labeling-function names of the artifact at base, in
// column order.
func VoteNames(fs dfs.FS, base string) ([]string, error) {
	meta, err := readVotesMeta(fs, base)
	if err != nil {
		return nil, err
	}
	return meta.Names, nil
}

// VerifyVotes checks the artifact's integrity — meta, shard headers,
// write-generation coherence, checksums, row accounting — without
// materializing the matrix, and returns the stored column names. It is the
// cheap read half of the publish verification loop.
func VerifyVotes(fs dfs.FS, base string) ([]string, error) {
	meta, err := readVotesMeta(fs, base)
	if err != nil {
		return nil, err
	}
	shards, err := dfs.ListShards(fs, base)
	if err != nil {
		return nil, fmt.Errorf("lf: list vote shards: %w", err)
	}
	if len(shards) != meta.Shards {
		return nil, fmt.Errorf("lf: votes at %s: %d shards on filesystem, meta says %d", base, len(shards), meta.Shards)
	}
	total := 0
	for _, shard := range shards {
		data, err := fs.ReadFile(shard)
		if err != nil {
			return nil, fmt.Errorf("lf: read votes shard: %w", err)
		}
		rows, err := checkVoteShard(shard, data, len(meta.Names), meta.Generation)
		if err != nil {
			return nil, err
		}
		total += rows
	}
	if total != meta.Examples {
		return nil, fmt.Errorf("lf: votes at %s hold %d rows, meta says %d", base, total, meta.Examples)
	}
	return meta.Names, nil
}

func readVotesMeta(fs dfs.FS, base string) (*votesMeta, error) {
	raw, err := fs.ReadFile(votesMetaPath(base))
	if err != nil {
		return nil, fmt.Errorf("lf: read votes meta: %w", err)
	}
	var meta votesMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("lf: decode votes meta: %w", err)
	}
	if meta.Shards <= 0 || meta.Examples < 0 || len(meta.Names) == 0 {
		return nil, fmt.Errorf("lf: votes meta at %s is degenerate (%d shards, %d examples, %d names)",
			base, meta.Shards, meta.Examples, len(meta.Names))
	}
	return &meta, nil
}

// ReadVotes loads a columnar vote artifact. When names is nil the full
// matrix is returned in stored column order; otherwise column j of the
// result holds the votes of names[j], selecting and reordering columns of
// the artifact (an unknown name is an error). Votes are copied directly
// from shard payloads into the matrix.
func ReadVotes(fs dfs.FS, base string, names []string) (*labelmodel.Matrix, []string, error) {
	meta, err := readVotesMeta(fs, base)
	if err != nil {
		return nil, nil, err
	}
	stored := len(meta.Names)
	if names == nil {
		names = meta.Names
	}
	// srcOf[dst] is the stored column feeding result column dst; mapping by
	// destination keeps duplicate requested names well-defined (each output
	// column is written on every row).
	byName := make(map[string]int, stored)
	for i, name := range meta.Names {
		byName[name] = i
	}
	srcOf := make([]int, len(names))
	for dst, name := range names {
		src, ok := byName[name]
		if !ok {
			return nil, nil, fmt.Errorf("lf: votes at %s have no column for %q (stored: %v)", base, name, meta.Names)
		}
		srcOf[dst] = src
	}

	mx := labelmodel.NewMatrix(meta.Examples, len(names))
	rowBuf := make([]labelmodel.Label, len(names))
	shards, err := dfs.ListShards(fs, base)
	if err != nil {
		return nil, nil, fmt.Errorf("lf: list vote shards: %w", err)
	}
	if len(shards) != meta.Shards {
		return nil, nil, fmt.Errorf("lf: votes at %s: %d shards on filesystem, meta says %d", base, len(shards), meta.Shards)
	}
	total := 0
	for s, shard := range shards {
		data, err := fs.ReadFile(shard)
		if err != nil {
			return nil, nil, fmt.Errorf("lf: read votes shard: %w", err)
		}
		rows, err := checkVoteShard(shard, data, stored, meta.Generation)
		if err != nil {
			return nil, nil, err
		}
		payload := data[voteShardHeaderSize:]
		for k := 0; k < rows; k++ {
			i := s + k*meta.Shards
			if i >= meta.Examples {
				return nil, nil, fmt.Errorf("lf: votes shard %s: row %d maps past %d examples", shard, k, meta.Examples)
			}
			rec := payload[k*stored : (k+1)*stored]
			for dst, src := range srcOf {
				b := rec[src]
				v := labelmodel.Label(int8(b))
				if !v.Valid() {
					return nil, nil, fmt.Errorf("lf: votes shard %s: stored vote byte %d out of range for %q",
						shard, int8(b), meta.Names[src])
				}
				rowBuf[dst] = v
			}
			mx.SetRow(i, rowBuf)
		}
		total += rows
	}
	if total != meta.Examples {
		return nil, nil, fmt.Errorf("lf: votes at %s hold %d rows, meta says %d", base, total, meta.Examples)
	}
	return mx, names, nil
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
