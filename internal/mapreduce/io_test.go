package mapreduce

import (
	"bytes"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dfs"
	"repro/internal/recordio"
)

// Grow hints stageStream can give an InputWriter before the first Append.
const (
	noGrow = iota
	exactGrow
	shortGrow // a tenth of the encoded size
)

// stageStream stages recs into n shards under base with an InputWriter.
func stageStream(tb testing.TB, fs dfs.FS, base string, recs [][]byte, n, grow int) {
	tb.Helper()
	w, err := NewInputWriter(fs, base, n)
	if err != nil {
		tb.Fatal(err)
	}
	switch grow {
	case exactGrow:
		w.Grow(recordio.EncodedSize(recs))
	case shortGrow:
		w.Grow(recordio.EncodedSize(recs) / 10)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// compareStaging fails unless an InputWriter stages recs into n shards
// byte-identical to a round-robin reference — record k framed by
// recordio.AppendFrame onto shard k%n — under a commit record holding their
// count and the shards' sizes and digests (frameDigest).
func compareStaging(t *testing.T, recs [][]byte, n, grow int) {
	t.Helper()
	ref := make([][]byte, n)
	for k, rec := range recs {
		var err error
		if ref[k%n], err = recordio.AppendFrame(ref[k%n], rec); err != nil {
			t.Fatal(err)
		}
	}
	fs := dfs.NewMem()
	stageStream(t, fs, "got", recs, n, grow)
	want := dfs.Record{Rows: len(recs), Shards: make([]dfs.ShardSum, n)}
	for i := 0; i < n; i++ {
		got, err := fs.ReadFile(dfs.ShardPath("got", i, n))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref[i]) {
			t.Fatalf("%d records, %d shards, grow %d: shard %d is %d bytes, the reference's %d, or differs", len(recs), n, grow, i, len(got), len(ref[i]))
		}
		want.Shards[i] = dfs.ShardSum{Size: int64(len(ref[i])), Digest: frameDigest(t, ref[i])}
	}
	got, err := dfs.ReadRecord(fs, "got")
	if err != nil {
		t.Fatal(err)
	}
	got.Checksum = 0 // the record file's own checksum, not a field the writer chose
	if want = want.Sealed(); !reflect.DeepEqual(*got, want) {
		t.Fatalf("commit record %+v, want %+v", *got, want)
	}
}

// frameDigest is the reference for a recordio shard's digest in its commit
// record: its frames' checksums, each recomputed here from its payload,
// folded in frame order as InputWriter.Record says.
func frameDigest(tb testing.TB, shard []byte) uint32 {
	tb.Helper()
	recs, err := recordio.Split(shard)
	if err != nil {
		tb.Fatal(err)
	}
	var d uint32
	for _, rec := range recs {
		d = (d ^ crc32.ChecksumIEEE(rec)) * 16777619
	}
	return d
}

// filled returns count records of size bytes each, record i holding byte i.
func filled(count, size int) [][]byte {
	recs := make([][]byte, count)
	for i := range recs {
		recs[i] = bytes.Repeat([]byte{byte(i)}, size)
	}
	return recs
}

// TestInputWriterMatchesWriteInput: whatever the records and whether Grow
// sized the first blocks or not, an InputWriter (behind WriteInput too)
// stages the round-robin reference's shards.
func TestInputWriterMatchesWriteInput(t *testing.T) {
	huge := filled(3, maxBlock+1)
	huge[1] = nil
	for _, c := range []struct {
		name   string
		recs   [][]byte
		shards int
	}{
		{"none", nil, 3},
		{"empty shards", filled(2, 10), 5},
		{"empty records", filled(7, 0), 2},
		// 1000-byte records: frames straddle each block boundary.
		{"straddling", filled(900, 1000), 1},
		{"straddling sharded", filled(900, 1000), 4},
		{"past the cap", huge, 2},
		{"past the cap, one shard", append(filled(20, 3000), huge...), 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, grow := range []int{noGrow, exactGrow, shortGrow} {
				compareStaging(t, c.recs, c.shards, grow)
			}
		})
	}
}

// TestInputWriterStagingBytes bounds what staging a small delta allocates —
// the incremental rounds' shape, 500 records of 800 bytes over 16 shards —
// at what it allocated when each shard was a bytes.Buffer behind a bufio
// writer: 1,493,000 bytes a staging, about 406,000 of them the in-memory
// filesystem's copies. Blocks that started big would overshoot it (16 fixed
// 256 KiB blocks are 4 MiB); the blocks allocate about 930,000.
func TestInputWriterStagingBytes(t *testing.T) {
	const ceiling = 1_493_000
	recs := filled(500, 800)
	stageStream(t, dfs.NewMem(), "warm", recs, 16, noGrow)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		stageStream(t, dfs.NewMem(), "in", recs, 16, noGrow)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > ceiling {
		t.Errorf("staging 500 × 800 B into 16 shards allocates %d bytes, ceiling %d", got, ceiling)
	}
}

// FuzzInputWriter: any record sizes, contents and shard count, with or
// without a Grow hint, stage shards byte-identical to the round-robin
// reference's.
func FuzzInputWriter(f *testing.F) {
	f.Add([]byte("abc"), []byte{1, 2, 3}, uint16(0), uint8(2), uint8(noGrow))
	f.Add([]byte{0, 255}, []byte{200, 0, 17, 255, 90, 90, 90}, uint16(40), uint8(3), uint8(exactGrow))
	f.Add([]byte("x"), []byte{255, 1, 255}, uint16(1100), uint8(1), uint8(shortGrow))
	f.Fuzz(func(t *testing.T, content, lengths []byte, scale uint16, shards, grow uint8) {
		unit, total := int(scale)%1024+1, 0
		recs := make([][]byte, len(lengths))
		for i, l := range lengths {
			if total += int(l) * unit; total > 2<<20 {
				return
			}
			recs[i] = make([]byte, int(l)*unit)
			for j := range recs[i] {
				if len(content) > 0 {
					recs[i][j] = content[(i+j)%len(content)]
				}
			}
		}
		compareStaging(t, recs, int(shards)%17+1, int(grow)%3)
	})
}
