package obs

import (
	"testing"

	"repro/internal/dfs"
)

func TestInstrumentFSCountsOpsErrorsAndBytes(t *testing.T) {
	reg := NewRegistry()
	fs := InstrumentFS(dfs.NewMem(), reg)

	if err := fs.WriteFile("a/b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("missing"); err == nil {
		t.Fatal("read of missing file succeeded")
	}
	if err := fs.Rename("a/b", "a/c"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.List("a/"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("a/c"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("a/c"); err != nil {
		t.Fatal(err)
	}

	get := func(op string) int64 {
		return reg.Counter("dfs_ops_total", "", Label{"op", op}).Value()
	}
	for op, want := range map[string]int64{
		"write": 1, "read": 2, "rename": 1, "list": 1, "stat": 1, "remove": 1,
	} {
		if got := get(op); got != want {
			t.Errorf("dfs_ops_total{op=%q} = %d, want %d", op, got, want)
		}
	}
	if errs := reg.Counter("dfs_op_errors_total", "", Label{"op", "read"}).Value(); errs != 1 {
		t.Errorf("read errors = %d, want 1", errs)
	}
	if b := reg.Counter("dfs_written_bytes_total", "").Value(); b != 5 {
		t.Errorf("written bytes = %d, want 5", b)
	}
	if b := reg.Counter("dfs_read_bytes_total", "").Value(); b != 5 {
		t.Errorf("read bytes = %d, want 5", b)
	}
	want := FSCounts{Writes: 1, Reads: 2, Renames: 1, Removes: 1, Lists: 1, Stats: 1, ReadBytes: 5, WrittenBytes: 5}
	if got := fs.(*InstrumentedFS).Counts(); got != want {
		t.Errorf("Counts() = %+v, want %+v", got, want)
	}
	if n := reg.Histogram("dfs_op_seconds", "", dfsOpBuckets, Label{"op", "write"}).Count(); n != 1 {
		t.Errorf("write latency observations = %d, want 1", n)
	}
}

func TestInstrumentFSNilRegistryPassesThrough(t *testing.T) {
	inner := dfs.NewMem()
	if got := InstrumentFS(inner, nil); got != dfs.FS(inner) {
		t.Fatal("nil registry did not return the inner FS unchanged")
	}
}
