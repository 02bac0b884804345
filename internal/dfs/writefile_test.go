package dfs_test

import (
	"net/http/httptest"
	"testing"

	"repro/internal/dfs"
	"repro/internal/mapreduce/remote"
	"repro/internal/obs"
)

// TestWriteFileKeepsNoReference holds every FS implementation to the
// WriteFile contract that writers reusing one buffer across files rely on:
// mutating the slice after WriteFile returns leaves the file as written.
func TestWriteFileKeepsNoReference(t *testing.T) {
	disk := func(t *testing.T) dfs.FS {
		d, err := dfs.NewDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, c := range []struct {
		name string
		fs   func(t *testing.T) dfs.FS
	}{
		{"mem", func(*testing.T) dfs.FS { return dfs.NewMem() }},
		{"disk", disk},
		{"fault", func(*testing.T) dfs.FS { return dfs.NewFaultFS(dfs.NewMem(), 1) }},
		{"instrumented", func(*testing.T) dfs.FS { return obs.InstrumentFS(dfs.NewMem(), obs.NewRegistry()) }},
		{"remote", func(t *testing.T) dfs.FS {
			pool, err := remote.NewPool(remote.PoolOptions{FS: dfs.NewMem()})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(pool.Handler())
			t.Cleanup(func() { srv.Close(); pool.Close() })
			return remote.NewFSClientOpts(srv.URL, nil, remote.FSClientOptions{})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := c.fs(t)
			data := []byte("abc")
			if err := fs.WriteFile("f", data); err != nil {
				t.Fatal(err)
			}
			data[0] = 'X'
			if got, err := fs.ReadFile("f"); err != nil || string(got) != "abc" {
				t.Errorf("after mutating the written slice the file holds %q, %v; want \"abc\"", got, err)
			}
		})
	}
}
