package obs

import (
	"time"

	"repro/internal/dfs"
)

// dfsOpBuckets are the DFS operation latency bounds in seconds. DFS ops are
// mostly in-memory or local-disk, so the range starts finer than request
// latency buckets.
var dfsOpBuckets = []float64{
	0.00001, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5,
}

// InstrumentFS wraps inner in an *InstrumentedFS, so every operation feeds
// per-op count, error, latency, and byte metrics into reg:
//
//	dfs_ops_total{op}         counter
//	dfs_op_errors_total{op}   counter
//	dfs_op_seconds{op}        histogram
//	dfs_read_bytes_total      counter
//	dfs_written_bytes_total   counter
//
// A nil registry returns inner unchanged.
func InstrumentFS(inner dfs.FS, reg *Registry) dfs.FS {
	if reg == nil {
		return inner
	}
	metrics := func(op string) opMetrics {
		return opMetrics{
			calls: reg.Counter("dfs_ops_total", "DFS operations started.", Label{"op", op}),
			errs:  reg.Counter("dfs_op_errors_total", "DFS operations that returned an error.", Label{"op", op}),
			secs:  reg.Histogram("dfs_op_seconds", "DFS operation latency in seconds.", dfsOpBuckets, Label{"op", op}),
		}
	}
	return &InstrumentedFS{
		inner: inner,
		write: metrics("write"), read: metrics("read"), rename: metrics("rename"),
		remove: metrics("remove"), list: metrics("list"), stat: metrics("stat"),
		readBytes:    reg.Counter("dfs_read_bytes_total", "Bytes read from the DFS."),
		writtenBytes: reg.Counter("dfs_written_bytes_total", "Bytes written to the DFS."),
	}
}

type opMetrics struct {
	calls, errs *Counter
	secs        *Histogram
}

// InstrumentedFS is the dfs.FS InstrumentFS returns.
type InstrumentedFS struct {
	inner                                   dfs.FS
	write, read, rename, remove, list, stat opMetrics
	readBytes, writtenBytes                 *Counter
}

// FSCounts is what an InstrumentedFS has done: the operations started, per
// kind, and the bytes successfully read and written.
type FSCounts struct {
	Writes, Reads, Renames, Removes, Lists, Stats, ReadBytes, WrittenBytes int64
}

// Counts reads the counters the wrapper feeds — its registry's, so wrappers
// over one registry report the same totals — with no op name to misspell and
// no lookup that answers 0 for a counter nothing feeds.
//
//drybellvet:testapi — pkg/drybell tests count filesystem reads with it; bench's countingFS is to move onto it
func (f *InstrumentedFS) Counts() FSCounts {
	return FSCounts{f.write.calls.Value(), f.read.calls.Value(), f.rename.calls.Value(), f.remove.calls.Value(),
		f.list.calls.Value(), f.stat.calls.Value(), f.readBytes.Value(), f.writtenBytes.Value()}
}

func (f *InstrumentedFS) observe(m opMetrics, start time.Time, err error) {
	m.calls.Inc()
	m.secs.ObserveDuration(time.Since(start))
	if err != nil {
		m.errs.Inc()
	}
}

// WriteFile implements dfs.FS.
func (f *InstrumentedFS) WriteFile(path string, data []byte) error {
	start := time.Now()
	err := f.inner.WriteFile(path, data)
	f.observe(f.write, start, err)
	if err == nil {
		f.writtenBytes.Add(int64(len(data)))
	}
	return err
}

// ReadFile implements dfs.FS.
func (f *InstrumentedFS) ReadFile(path string) ([]byte, error) {
	start := time.Now()
	data, err := f.inner.ReadFile(path)
	f.observe(f.read, start, err)
	if err == nil {
		f.readBytes.Add(int64(len(data)))
	}
	return data, err
}

// Rename implements dfs.FS.
func (f *InstrumentedFS) Rename(oldPath, newPath string) error {
	start := time.Now()
	err := f.inner.Rename(oldPath, newPath)
	f.observe(f.rename, start, err)
	return err
}

// Remove implements dfs.FS.
func (f *InstrumentedFS) Remove(path string) error {
	start := time.Now()
	err := f.inner.Remove(path)
	f.observe(f.remove, start, err)
	return err
}

// List implements dfs.FS.
func (f *InstrumentedFS) List(prefix string) ([]string, error) {
	start := time.Now()
	names, err := f.inner.List(prefix)
	f.observe(f.list, start, err)
	return names, err
}

// Stat implements dfs.FS.
func (f *InstrumentedFS) Stat(path string) (int64, error) {
	start := time.Now()
	size, err := f.inner.Stat(path)
	f.observe(f.stat, start, err)
	return size, err
}
