package dfs

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// implementations under test.
func eachFS(t *testing.T, fn func(t *testing.T, fs FS)) {
	t.Run("mem", func(t *testing.T) { fn(t, NewMem()) })
	t.Run("disk", func(t *testing.T) {
		d, err := NewDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fn(t, d)
	})
}

func TestWriteReadRoundTrip(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		data := []byte("the quick brown fox")
		if err := fs.WriteFile("dir/sub/file.rec", data); err != nil {
			t.Fatal(err)
		}
		got, err := fs.ReadFile("dir/sub/file.rec")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("ReadFile = %q, want %q", got, data)
		}
		n, err := fs.Stat("dir/sub/file.rec")
		if err != nil || n != int64(len(data)) {
			t.Errorf("Stat = %d, %v", n, err)
		}
	})
}

func TestReadMissing(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		_, err := fs.ReadFile("nope")
		if !IsNotExist(err) {
			t.Errorf("err = %v, want not-exist", err)
		}
	})
}

func TestOverwriteReplaces(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		if err := fs.WriteFile("f", []byte("one")); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("f", []byte("two")); err != nil {
			t.Fatal(err)
		}
		got, _ := fs.ReadFile("f")
		if string(got) != "two" {
			t.Errorf("after overwrite: %q", got)
		}
	})
}

func TestRenameSemantics(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		if err := fs.WriteFile("a", []byte("data")); err != nil {
			t.Fatal(err)
		}
		if err := fs.Rename("a", "b"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadFile("a"); !IsNotExist(err) {
			t.Error("source still exists after rename")
		}
		got, err := fs.ReadFile("b")
		if err != nil || string(got) != "data" {
			t.Errorf("dest = %q, %v", got, err)
		}
		if err := fs.Rename("missing", "c"); !IsNotExist(err) {
			t.Errorf("rename missing: %v", err)
		}
	})
}

func TestRemove(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		if err := fs.WriteFile("f", nil); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove("f"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove("f"); !IsNotExist(err) {
			t.Errorf("double remove: %v", err)
		}
	})
}

func TestListPrefix(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		for _, p := range []string{"x/a", "x/b", "y/c"} {
			if err := fs.WriteFile(p, nil); err != nil {
				t.Fatal(err)
			}
		}
		got, err := fs.List("x/")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != "x/a" || got[1] != "x/b" {
			t.Errorf("List(x/) = %v", got)
		}
		all, err := fs.List("")
		if err != nil || len(all) != 3 {
			t.Errorf("List() = %v, %v", all, err)
		}
	})
}

func TestInvalidPaths(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		for _, p := range []string{"", "/abs", "trail/", "a//b", "a/../b", "./x"} {
			if err := fs.WriteFile(p, nil); err == nil {
				t.Errorf("WriteFile(%q) accepted invalid path", p)
			}
		}
	})
}

func TestConcurrentWriters(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		const n = 32
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				p := fmt.Sprintf("shard/f-%03d", i)
				if err := fs.WriteFile(p, []byte(p)); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		got, err := fs.List("shard/")
		if err != nil || len(got) != n {
			t.Fatalf("List = %d files, %v", len(got), err)
		}
		for _, p := range got {
			data, err := fs.ReadFile(p)
			if err != nil || string(data) != p {
				t.Errorf("file %q holds %q, %v", p, data, err)
			}
		}
	})
}

func TestMemReadIsolation(t *testing.T) {
	m := NewMem()
	if err := m.WriteFile("f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadFile("f")
	got[0] = 'X'
	again, _ := m.ReadFile("f")
	if string(again) != "abc" {
		t.Error("ReadFile result aliases stored data")
	}
}

func TestMemCorruptFailureInjection(t *testing.T) {
	m := NewMem()
	if err := m.WriteFile("f", []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if err := m.Corrupt("f", 2); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadFile("f")
	if got[2] == 'c' {
		t.Error("Corrupt did not flip the byte")
	}
	if err := m.Corrupt("f", 99); err == nil {
		t.Error("Corrupt out of range accepted")
	}
	if err := m.Corrupt("missing", 0); !IsNotExist(err) {
		t.Errorf("Corrupt missing: %v", err)
	}
}

func TestShardPathRoundTripProperty(t *testing.T) {
	f := func(idx, count uint8) bool {
		n := int(count%50) + 1
		i := int(idx) % n
		p := ShardPath("out/labels", i, n)
		base, gi, gn, ok := ParseShardPath(p)
		return ok && base == "out/labels" && gi == i && gn == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParseShardPathRejectsGarbage(t *testing.T) {
	bad := []string{"plain", "x-of-y", "f-00001-of-0000", "f-0000a-of-00002", "f-00005-of-00003", ""}
	for _, p := range bad {
		if _, _, _, ok := ParseShardPath(p); ok {
			t.Errorf("ParseShardPath(%q) accepted garbage", p)
		}
	}
}

// commitShards writes one byte-long shard i of n under base for each i in
// present, and a commit record naming n one-byte shards.
func commitShards(t *testing.T, m FS, base string, n int, present ...int) {
	t.Helper()
	for _, i := range present {
		if err := m.WriteFile(ShardPath(base, i, n), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sums := make([]ShardSum, n)
	for i := range sums {
		sums[i] = ShardSum{Size: 1, Digest: uint32(i)}
	}
	if _, err := WriteRecord(m, base, Record{Rows: n, Shards: sums}); err != nil {
		t.Fatal(err)
	}
}

func TestListShardsCompleteSet(t *testing.T) {
	m := NewMem()
	commitShards(t, m, "out/l", 4, 0, 1, 2, 3)
	m.WriteFile(ShardPath("out/l", 0, 3), nil) // a stray its record does not name
	got, err := ListShards(m, "out/l")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[2] != "out/l-00002-of-00004" {
		t.Errorf("ListShards = %v", got)
	}
}

func TestListShardsMissingShard(t *testing.T) {
	m := NewMem()
	commitShards(t, m, "out/l", 3, 0, 2)
	if _, err := ListShards(m, "out/l"); err == nil {
		t.Error("incomplete shard set accepted")
	}
}

func TestListShardsInconsistentCount(t *testing.T) {
	m := NewMem()
	commitShards(t, m, "out/l", 3)
	m.WriteFile(ShardPath("out/l", 0, 2), []byte{0})
	m.WriteFile(ShardPath("out/l", 1, 2), []byte{1})
	m.WriteFile(ShardPath("out/l", 2, 3), []byte{2, 2}) // the record says one byte
	if _, err := ListShards(m, "out/l"); err == nil {
		t.Error("inconsistent shard counts accepted")
	}
}

func TestListShardsNone(t *testing.T) {
	m := NewMem()
	if _, err := ListShards(m, "none"); err == nil {
		t.Error("no shards accepted")
	}
	// Shards without a commit record are not a set.
	m.WriteFile(ShardPath("none", 0, 1), []byte{0})
	if _, err := ListShards(m, "none"); err == nil {
		t.Error("uncommitted shards accepted")
	}
}

// TestRemoveShards: only base's shards of another count go (all of them for
// keep 0); a base sharing the prefix and a .partial stay.
func TestRemoveShards(t *testing.T) {
	m := NewMem()
	partial, other := ShardPath("out/l", 1, 2)+".partial", ShardPath("out/l-x", 0, 2)
	for _, p := range []string{ShardPath("out/l", 0, 2), ShardPath("out/l", 1, 2), ShardPath("out/l", 0, 3), ShardPath("out/l", 1, 3), partial, other} {
		m.WriteFile(p, nil)
	}
	for _, c := range []struct {
		keep int
		want []string
	}{
		{3, []string{ShardPath("out/l", 0, 3), partial, ShardPath("out/l", 1, 3), other}},
		{0, []string{partial, other}},
	} {
		if err := RemoveShards(m, "out/l", c.keep); err != nil {
			t.Fatal(err)
		}
		if got, _ := m.List(""); !slices.Equal(got, c.want) {
			t.Errorf("after RemoveShards(%d): %q, want %q", c.keep, got, c.want)
		}
	}
}
