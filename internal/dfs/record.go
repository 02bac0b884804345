package dfs

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// Record is a shard set's commit record, at RecordPath(base): written after
// every shard it names, read before any. Every shard set — staged input,
// deltas, labels, the flat vote artifact and every vote generation — commits
// through one, and a set without a readable record is not staged, whatever
// shards stand there.
type Record struct {
	Rows int `json:"rows"` // records, or vote rows
	// Shards holds each shard's size and digest in shard order; its length
	// is the shard count.
	Shards []ShardSum `json:"shards"`
	// Digest is the set digest (see Sealed): two sets with one digest hold
	// the same bytes.
	Digest uint64 `json:"digest"`
	// Names, StartRow and Deleted are a vote set's: its columns, in order;
	// the absolute row its rows begin at; and the absolute rows it tombstones.
	// A vote generation is its shards and this record, nothing else.
	Names    []string `json:"names,omitempty"`
	StartRow int      `json:"start_row,omitempty"`
	Deleted  []int    `json:"deleted,omitempty"`
	// Checksum is the record file's own (ReadJSON's), over every field above:
	// set by ReadRecord and WriteRecord, never stored.
	Checksum uint32 `json:"-"`
}

// ShardSum is one shard's size and digest, folded from checksums its writer
// already holds: a recordio shard's frame CRCs, or a vote shard's payload CRC.
type ShardSum struct {
	Size   int64  `json:"size"`
	Digest uint32 `json:"digest"`
}

// RecordPath is the commit record of the shard set at base.
func RecordPath(base string) string { return base + ".commit" }

// Sealed returns r with its set digest: FNV-1a over the row count, the shard
// count and every shard's size and digest, each as 8 little-endian bytes.
func (r Record) Sealed() Record {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 64; i += 8 {
			h = (h ^ (v >> i & 0xff)) * 1099511628211
		}
	}
	mix(uint64(r.Rows))
	mix(uint64(len(r.Shards)))
	for _, s := range r.Shards {
		mix(uint64(s.Size))
		mix(uint64(s.Digest))
	}
	r.Digest = h
	return r
}

// WriteRecord commits the shard set at base, every shard of which r names
// and is published: it writes r, sealed, as the set's commit record, and
// returns the record as ReadRecord will read it.
func WriteRecord(fs FS, base string, r Record) (Record, error) {
	r = r.Sealed()
	var err error
	r.Checksum, err = WriteJSON(fs, RecordPath(base), r)
	return r, err
}

// ReadRecord reads the commit record of the shard set at base and checks it
// on its own — checksum, shape, set digest — without looking at the shards
// (see Stat). A missing record is the filesystem's error, as is, so
// IsNotExist tells absence from damage.
func ReadRecord(fs FS, base string) (*Record, error) {
	var r Record
	var err error
	if r.Checksum, err = ReadJSON(fs, RecordPath(base), &r); err != nil {
		return nil, err
	}
	if r.Rows < 0 || len(r.Shards) == 0 {
		return nil, fmt.Errorf("dfs: commit record of %s is degenerate (%d rows, %d shards)", base, r.Rows, len(r.Shards))
	}
	if r.Digest != r.Sealed().Digest {
		return nil, fmt.Errorf("dfs: commit record of %s does not match its own set digest", base)
	}
	return &r, nil
}

// Stat confirms, one Stat call per shard, that every shard r names stands
// under base at the size r gives it.
func (r *Record) Stat(fs FS, base string) error {
	for i, s := range r.Shards {
		if size, err := fs.Stat(ShardPath(base, i, len(r.Shards))); err != nil || size != s.Size {
			return fmt.Errorf("dfs: %s is not staged: shard %d of %d does not match its commit record", base, i, len(r.Shards))
		}
	}
	return nil
}

// Committed returns the commit record of the shard set at base once Stat has
// confirmed that it describes the shards standing there.
func Committed(fs FS, base string) (*Record, error) {
	r, err := ReadRecord(fs, base)
	if err != nil {
		return nil, fmt.Errorf("dfs: %s is not staged: %w", base, err)
	}
	return r, r.Stat(fs, base)
}

// A checksummed JSON file is one JSON object a reader splits without parsing:
// {"crc":"<IEEE CRC32 of the body, 8 hex digits>","body":<body>}.
const sealHead, sealMid, sealLen = `{"crc":"`, `","body":`, len(sealHead) + 8 + len(sealMid)

// WriteJSON writes v as a checksummed JSON file at path, atomically, and
// returns its checksum.
func WriteJSON(fs FS, path string, v any) (uint32, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("dfs: encode %s: %w", path, err)
	}
	sum := crc32.ChecksumIEEE(body)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], sum)
	raw := hex.AppendEncode(append(make([]byte, 0, sealLen+len(body)+1), sealHead...), crc[:])
	raw = append(append(append(raw, sealMid...), body...), '}')
	return sum, fs.WriteFile(path, raw)
}

// ReadJSON reads the checksummed JSON file at path into v and returns its
// checksum. A body that does not match its checksum is refused before it is
// decoded; a failed read is the filesystem's error, as is.
func ReadJSON(fs FS, path string, v any) (uint32, error) {
	raw, err := fs.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var crc [4]byte
	if len(raw) <= sealLen || string(raw[:len(sealHead)]) != sealHead || string(raw[sealLen-len(sealMid):sealLen]) != sealMid ||
		raw[len(raw)-1] != '}' {
		return 0, fmt.Errorf("dfs: %s is corrupt: not a checksummed JSON file", path)
	}
	if _, err := hex.Decode(crc[:], raw[len(sealHead):sealLen-len(sealMid)]); err != nil {
		return 0, fmt.Errorf("dfs: %s is corrupt: %w", path, err)
	}
	body, sum := raw[sealLen:len(raw)-1], binary.BigEndian.Uint32(crc[:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return 0, fmt.Errorf("dfs: %s is corrupt: checksum %08x does not match contents (%08x)", path, sum, got)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return 0, fmt.Errorf("dfs: %s is corrupt: %w", path, err)
	}
	return sum, nil
}
