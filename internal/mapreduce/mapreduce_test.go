package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/dfs"
	"repro/internal/recordio"
)

func stageWords(t *testing.T, fs dfs.FS, base string, words []string, shards int) {
	t.Helper()
	recs := make([][]byte, len(words))
	for i, w := range words {
		recs[i] = []byte(w)
	}
	if err := WriteInput(fs, base, recs, shards); err != nil {
		t.Fatal(err)
	}
}

// upperJob is the canonical test job, shaped like the fused vote job: one
// task per shard, values collected in Result.MapOutputs. It counts its
// records and emits each one upper-cased.
func upperJob(fs dfs.FS, in string, parallelism int) Job {
	return Job{Name: "upper", FS: fs, InputBase: in, Parallelism: parallelism, Mapper: upperMapper}
}

var upperMapper = MapFunc(func(ctx *TaskContext, rec []byte, emit Emitter) error {
	ctx.Counters.Inc("records-in", 1)
	ctx.Counters.Inc(ClockCounterPrefix+"records-in", 1) // stands in for a wall-time measurement
	emit(bytes.ToUpper(rec))
	return nil
})

// upperReference is upperJob's output computed sequentially: round-robin
// staging puts record j in shard j%shards.
func upperReference(words []string, shards int) [][][]byte {
	want := make([][][]byte, shards)
	for j, w := range words {
		want[j%shards] = append(want[j%shards], []byte(strings.ToUpper(w)))
	}
	return want
}

// assertOutputs fails unless got holds exactly want's values, shard by shard.
func assertOutputs(t *testing.T, got, want [][][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("MapOutputs for %d shards, want %d", len(got), len(want))
	}
	for s := range want {
		if len(got[s]) != len(want[s]) {
			t.Fatalf("shard %d: %d values, want %d", s, len(got[s]), len(want[s]))
		}
		for r := range want[s] {
			if !bytes.Equal(got[s][r], want[s][r]) {
				t.Fatalf("shard %d value %d = %q, want %q", s, r, got[s][r], want[s][r])
			}
		}
	}
}

// onlyInput fails if anything but the staged input under in — its shards and
// their commit record — is on fs.
func onlyInput(t *testing.T, fs dfs.FS, in string) {
	t.Helper()
	paths, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if !strings.HasPrefix(p, in+"-") && p != dfs.RecordPath(in) {
			t.Errorf("job left %s behind", p)
		}
	}
}

func TestDeterministicAcrossParallelismAndShards(t *testing.T) {
	var words []string
	for i := 0; i < 200; i++ {
		words = append(words, fmt.Sprintf("w%d", i%17))
	}
	for _, cfg := range []struct{ shards, par int }{
		{1, 1}, {4, 8}, {7, 2}, {10, 16}, {3, 3},
	} {
		fs := dfs.NewMem()
		stageWords(t, fs, "in/w", words, cfg.shards)
		res, err := RunContext(context.Background(), upperJob(fs, "in/w", cfg.par))
		if err != nil {
			t.Fatal(err)
		}
		assertOutputs(t, res.MapOutputs, upperReference(words, cfg.shards))
		if got := res.Counters["records-in"]; got != int64(len(words)) {
			t.Errorf("cfg %+v: records-in = %d, want %d", cfg, got, len(words))
		}
	}
}

func TestMapOnlyPreservesOrder(t *testing.T) {
	fs := dfs.NewMem()
	var recs [][]byte
	for i := 0; i < 50; i++ {
		recs = append(recs, []byte(fmt.Sprintf("r%03d", i)))
	}
	if err := WriteInput(fs, "in/r", recs, 5); err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), upperJob(fs, "in/r", 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.MapTasks != 5 {
		t.Errorf("tasks = %d, want 5", res.MapTasks)
	}
	// Task i's values mirror input shard i, in record order. Round-robin
	// staging puts record j in shard j%5, so each shard holds one residue
	// class in input order.
	for s, shard := range res.MapOutputs {
		r := 0
		for j := s; j < 50; j += 5 {
			if want := strings.ToUpper(fmt.Sprintf("r%03d", j)); string(shard[r]) != want {
				t.Fatalf("shard %d value %d = %q, want %q", s, r, shard[r], want)
			}
			r++
		}
		if len(shard) != r {
			t.Fatalf("shard %d has %d values, want %d", s, len(shard), r)
		}
	}
}

func TestSetupTeardownPerTask(t *testing.T) {
	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", []string{"a", "b", "c", "d"}, 4)
	var mu sync.Mutex
	setups, teardowns := 0, 0
	m := &hookedMapper{
		setup: func(ctx *TaskContext) error {
			mu.Lock()
			setups++
			mu.Unlock()
			ctx.SetState("server-handle")
			return nil
		},
		mapFn: func(ctx *TaskContext, rec []byte, emit Emitter) error {
			if ctx.State() != "server-handle" {
				t.Error("state not visible in Map")
			}
			emit(rec)
			return nil
		},
		teardown: func(*TaskContext) error {
			mu.Lock()
			teardowns++
			mu.Unlock()
			return nil
		},
	}
	if _, err := RunContext(context.Background(), Job{Name: "hooked", FS: fs, InputBase: "in/w", Mapper: m, Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	if setups != 4 || teardowns != 4 {
		t.Errorf("setups=%d teardowns=%d, want 4/4 (one per task)", setups, teardowns)
	}
}

type hookedMapper struct {
	setup    func(*TaskContext) error
	mapFn    func(*TaskContext, []byte, Emitter) error
	teardown func(*TaskContext) error
}

func (h *hookedMapper) Setup(c *TaskContext) error { return h.setup(c) }
func (h *hookedMapper) MapBatch(c *TaskContext, recs [][]byte, e Emitter) error {
	for _, r := range recs {
		if err := h.mapFn(c, r, e); err != nil {
			return err
		}
	}
	return nil
}
func (h *hookedMapper) Teardown(c *TaskContext) error { return h.teardown(c) }

func TestFailureInjectionRetriesAndSucceeds(t *testing.T) {
	fs := dfs.NewMem()
	words := []string{"a", "a", "b"}
	stageWords(t, fs, "in/w", words, 2)
	var mu sync.Mutex
	failed := map[string]int{}
	job := upperJob(fs, "in/w", 4)
	job.MaxAttempts = 3
	job.FailureHook = func(taskID string, attempt int) error {
		mu.Lock()
		defer mu.Unlock()
		if attempt < 2 { // every task's first attempt crashes
			failed[taskID]++
			return errors.New("injected worker crash")
		}
		return nil
	}
	res, err := RunContext(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != res.MapTasks {
		t.Errorf("failed tasks = %d, want %d", len(failed), res.MapTasks)
	}
	// Exactly-once output despite retries: no value lost or duplicated, and
	// only the winning attempt's counters are merged.
	assertOutputs(t, res.MapOutputs, upperReference(words, 2))
	if got := res.Counters["records-in"]; got != int64(len(words)) {
		t.Errorf("records-in = %d, want %d", got, len(words))
	}
}

func TestFailureExhaustsAttempts(t *testing.T) {
	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", []string{"a"}, 1)
	job := upperJob(fs, "in/w", 1)
	job.MaxAttempts = 2
	job.FailureHook = func(taskID string, attempt int) error {
		return errors.New("permanent failure")
	}
	if _, err := RunContext(context.Background(), job); err == nil {
		t.Fatal("job with permanent failures should fail")
	}
	onlyInput(t, fs, "in/w")
}

func TestMapErrorPropagates(t *testing.T) {
	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", []string{"boom"}, 1)
	job := Job{
		Name: "failing", FS: fs, InputBase: "in/w",
		MaxAttempts: 1,
		Mapper: MapFunc(func(_ *TaskContext, rec []byte, _ Emitter) error {
			return fmt.Errorf("bad record %q", rec)
		}),
	}
	if _, err := RunContext(context.Background(), job); err == nil || !strings.Contains(err.Error(), "bad record") {
		t.Errorf("err = %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	fs := dfs.NewMem()
	if _, err := RunContext(context.Background(), Job{Name: "x", FS: fs}); err == nil {
		t.Error("job without mapper accepted")
	}
	m := MapFunc(func(*TaskContext, []byte, Emitter) error { return nil })
	if _, err := RunContext(context.Background(), Job{Name: "x", Mapper: m}); err == nil {
		t.Error("job without FS accepted")
	}
	if _, err := RunContext(context.Background(), Job{Name: "x", FS: fs, Mapper: m, InputBase: "missing"}); err == nil {
		t.Error("job with missing input accepted")
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounterSet()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc("n", 1)
			}
		}()
	}
	wg.Wait()
	snap := c.Snapshot()
	if snap["n"] != 2000 {
		t.Errorf("counter = %d, want 2000", snap["n"])
	}
	c.Inc("n", 1)
	if snap["n"] != 2000 {
		t.Error("Snapshot aliases live counters")
	}
}

// TestStagedCountAndOrder: the commit record's count is trusted only while
// the record matches the committed shards, a restaging with another shard
// count leaves none of the old count's, and ReadStaged restores staging order
// from the round-robin layout — refusing a shard set that round-robin staging
// could not have produced.
func TestStagedCountAndOrder(t *testing.T) {
	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", []string{"a", "b", "c", "d", "e", "f", "g"}, 3)
	if rec, err := dfs.Committed(fs, "in/w"); err != nil || rec.Rows != 7 {
		t.Fatalf("Committed = %+v, %v", rec, err)
	}
	recs, err := ReadStaged(fs, "in/w")
	if err != nil || strings.Join(recordsToStrings(recs), "") != "abcdefg" {
		t.Fatalf("ReadStaged = %q, %v", recordsToStrings(recs), err)
	}

	// Restage with another shard count: the old count's shards go.
	stageWords(t, fs, "in/w", []string{"v", "w", "x", "y", "z"}, 2)
	recs, err = ReadStaged(fs, "in/w")
	if err != nil || strings.Join(recordsToStrings(recs), "") != "vwxyz" {
		t.Fatalf("ReadStaged after restaging over 2 shards = %q, %v", recordsToStrings(recs), err)
	}

	// Replace a shard without refreshing the commit record: the set is not
	// staged, whatever is on disk.
	one, err := recordio.Encode([][]byte{[]byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if err := dfs.PublishShard(fs, "in/w", 0, 2, one); err != nil {
		t.Fatal(err)
	}
	for _, read := range []func() error{
		func() error { _, err := dfs.Committed(fs, "in/w"); return err },
		func() error { _, err := ReadStaged(fs, "in/w"); return err },
	} {
		if err := read(); err == nil || !strings.Contains(err.Error(), "not staged") {
			t.Fatalf("read over a stale commit record = %v, want not staged", err)
		}
	}

	// Shard 0 of 2 holding one record while shard 1 holds three is not a
	// round-robin layout, though its commit record matches.
	three, err := recordio.Encode([][]byte{[]byte("p"), []byte("q"), []byte("r")})
	if err != nil {
		t.Fatal(err)
	}
	if err := dfs.PublishShard(fs, "in/bad", 0, 2, one); err != nil {
		t.Fatal(err)
	}
	if err := dfs.PublishShard(fs, "in/bad", 1, 2, three); err != nil {
		t.Fatal(err)
	}
	record := dfs.Record{Rows: 4, Shards: []dfs.ShardSum{
		{Size: int64(len(one)), Digest: frameDigest(t, one)},
		{Size: int64(len(three)), Digest: frameDigest(t, three)},
	}}
	if _, err := dfs.WriteRecord(fs, "in/bad", record); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStaged(fs, "in/bad"); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Fatalf("ReadStaged over a non-round-robin set = %v", err)
	}

}

// TestCorruptShardFailsTask: a damaged input shard fails its task with
// recordio.ErrCorrupt on every attempt — and the job with it — and the
// shard readers refuse it the same way.
func TestCorruptShardFailsTask(t *testing.T) {
	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", []string{"aaaa", "bbbb"}, 1)
	if err := fs.Corrupt(dfs.ShardPath("in/w", 0, 1), 14); err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(context.Background(), upperJob(fs, "in/w", 1)); !errors.Is(err, recordio.ErrCorrupt) {
		t.Errorf("job over a corrupt shard: err = %v, want ErrCorrupt", err)
	}
	if _, err := ReadStaged(fs, "in/w"); !errors.Is(err, recordio.ErrCorrupt) {
		t.Errorf("ReadStaged over a corrupt shard: err = %v, want ErrCorrupt", err)
	}
}

func recordsToStrings(recs [][]byte) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	return out
}

// batchUpper records the size of every MapBatch call it gets.
type batchUpper struct {
	mu        sync.Mutex
	batchSize []int
}

func (m *batchUpper) Setup(*TaskContext) error    { return nil }
func (m *batchUpper) Teardown(*TaskContext) error { return nil }
func (m *batchUpper) MapBatch(_ *TaskContext, records [][]byte, emit Emitter) error {
	m.mu.Lock()
	m.batchSize = append(m.batchSize, len(records))
	m.mu.Unlock()
	for _, rec := range records {
		emit([]byte(strings.ToUpper(string(rec))))
	}
	return nil
}

// TestBatchMapperGetsWholeShards: the engine hands each task's records to
// MapBatch in one call, and the output equals the per-record MapFunc job's.
func TestBatchMapperGetsWholeShards(t *testing.T) {
	fs := dfs.NewMem()
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"}
	stageWords(t, fs, "in/w", words, 3)
	m := &batchUpper{}
	res, err := RunContext(context.Background(), Job{Name: "batch-upper", FS: fs, InputBase: "in/w", Mapper: m, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.batchSize) != 3 {
		t.Fatalf("MapBatch calls = %d, want one per shard", len(m.batchSize))
	}
	total := 0
	for _, n := range m.batchSize {
		total += n
	}
	if total != len(words) {
		t.Fatalf("batched records = %d, want %d", total, len(words))
	}
	assertOutputs(t, res.MapOutputs, upperReference(words, 3))
}

// TestCollectOutputReturnsWithoutCommitting: a job without Resume returns
// its values in memory and writes nothing to the filesystem.
func TestCollectOutputReturnsWithoutCommitting(t *testing.T) {
	fs := dfs.NewMem()
	var words []string
	for i := 0; i < 30; i++ {
		words = append(words, fmt.Sprintf("r%03d", i))
	}
	stageWords(t, fs, "in/c", words, 4)
	res, err := RunContext(context.Background(), upperJob(fs, "in/c", 8))
	if err != nil {
		t.Fatal(err)
	}
	assertOutputs(t, res.MapOutputs, upperReference(words, 4))
	onlyInput(t, fs, "in/c")
}

// TestMapFuncStopsOnCancel: a MapFunc checks the attempt's context before
// each record, so a run canceled after k records maps no more of the shard.
func TestMapFuncStopsOnCancel(t *testing.T) {
	fs := dfs.NewMem()
	var words []string
	for i := 0; i < 20; i++ {
		words = append(words, fmt.Sprintf("w%02d", i))
	}
	stageWords(t, fs, "in/w", words, 1)
	const k = 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mapped := 0
	job := Job{
		Name: "cancel", FS: fs, InputBase: "in/w", Parallelism: 1, MaxAttempts: 1,
		Mapper: MapFunc(func(_ *TaskContext, rec []byte, emit Emitter) error {
			if mapped++; mapped == k {
				cancel()
			}
			emit(rec)
			return nil
		}),
	}
	if _, err := RunContext(ctx, job); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled job: err = %v, want context.Canceled", err)
	}
	if mapped != k {
		t.Errorf("mapped %d records after canceling at %d of %d", mapped, k, len(words))
	}
	onlyInput(t, fs, "in/w")
}
