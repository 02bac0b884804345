package dfs

import (
	"fmt"
	"reflect"
	"testing"
)

// FuzzCommitRecord: whatever bytes stand where a commit record should, a
// read of them is an error or a record that checks out, never a panic. A
// record written over published shards reads back as written, its checksum
// included; with one byte of it flipped — body, checksum or layout — it is
// refused, and so is the set once a shard it names changes size.
func FuzzCommitRecord(f *testing.F) {
	seed := NewMem()
	if _, err := WriteRecord(seed, "seed", Record{Rows: 7, Shards: []ShardSum{{3, 1}, {0, 2}}, Names: []string{"a"}, StartRow: 9, Deleted: []int{2}}); err != nil {
		f.Fatal(err)
	}
	valid, err := seed.ReadFile(RecordPath("seed"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint16(7), []byte{3, 0}, uint16(0))
	f.Add(valid[:len(valid)-1], uint16(0), []byte{0}, uint16(40))
	f.Add([]byte(`{"crc":"00000000","body":{}}`), uint16(1), []byte{255, 1, 2, 3}, uint16(9))
	f.Add([]byte(`{"crc":"zzzzzzzz","body":{"rows":-1}}`), uint16(2), []byte{}, uint16(3))
	f.Fuzz(func(t *testing.T, raw []byte, rows uint16, sizes []byte, flip uint16) {
		fs := NewMem()
		if err := fs.WriteFile(RecordPath("any"), raw); err != nil {
			t.Fatal(err)
		}
		if r, err := ReadRecord(fs, "any"); err == nil {
			if r.Rows < 0 || len(r.Shards) == 0 || r.Sealed().Digest != r.Digest {
				t.Fatalf("ReadRecord accepted %+v", r)
			}
			if _, err := Committed(fs, "any"); err == nil {
				t.Fatalf("Committed accepted %+v with no shards standing", r)
			}
		}

		if len(sizes) == 0 || len(sizes) > 64 {
			return
		}
		want := Record{Rows: int(rows), StartRow: int(flip)}
		for i, size := range sizes {
			if err := PublishShard(fs, "set", i, len(sizes), make([]byte, size)); err != nil {
				t.Fatal(err)
			}
			want.Shards = append(want.Shards, ShardSum{Size: int64(size), Digest: uint32(i) * 2654435761})
			if i < 3 {
				want.Names = append(want.Names, fmt.Sprintf("c%d", i))
				want.Deleted = append(want.Deleted, int(size))
			}
		}
		want, err := WriteRecord(fs, "set", want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Committed(fs, "set")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("read back %+v, wrote %+v", *got, want)
		}

		stored, err := fs.ReadFile(RecordPath("set"))
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Corrupt(RecordPath("set"), int(flip)%len(stored)); err != nil {
			t.Fatal(err)
		}
		if r, err := ReadRecord(fs, "set"); err == nil {
			t.Fatalf("a record with byte %d flipped read as %+v", int(flip)%len(stored), r)
		}
		if err := fs.WriteFile(RecordPath("set"), stored); err != nil {
			t.Fatal(err)
		}
		s := int(flip) % len(sizes)
		if err := PublishShard(fs, "set", s, len(sizes), make([]byte, int(sizes[s])+1)); err != nil {
			t.Fatal(err)
		}
		if _, err := Committed(fs, "set"); err == nil {
			t.Fatalf("a set whose shard %d grew a byte still reads as committed", s)
		}
		if _, err := ListShards(fs, "set"); err == nil {
			t.Fatalf("ListShards listed a set whose shard %d grew a byte", s)
		}
	})
}
