package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

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

// wordCount is the canonical test job.
func wordCountJob(fs dfs.FS, in, out string, reducers, parallelism int) Job {
	return Job{
		Name:      "wordcount",
		FS:        fs,
		InputBase: in, OutputBase: out,
		NumReducers: reducers,
		Parallelism: parallelism,
		Mapper: MapFunc(func(ctx *TaskContext, rec []byte, emit Emitter) error {
			ctx.Counters.Inc("records-in", 1)
			emit(string(rec), []byte{1})
			return nil
		}),
		Reducer: ReduceFunc(func(ctx *TaskContext, key string, values [][]byte, emit Emitter) error {
			emit(key, []byte(fmt.Sprintf("%s=%d", key, len(values))))
			return nil
		}),
	}
}

func runWordCount(t *testing.T, words []string, shards, reducers, parallelism int) map[string]int {
	t.Helper()
	fs := dfs.NewMem()
	stageWords(t, fs, "in/words", words, shards)
	res, err := Run(wordCountJob(fs, "in/words", "out/counts", reducers, parallelism))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters["records-in"]; got != int64(len(words)) {
		t.Errorf("records-in counter = %d, want %d", got, len(words))
	}
	recs, err := ReadOutput(fs, "out/counts")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range recs {
		parts := strings.SplitN(string(r), "=", 2)
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			t.Fatal(err)
		}
		counts[parts[0]] = n
	}
	return counts
}

func TestWordCountCorrect(t *testing.T) {
	words := []string{"a", "b", "a", "c", "a", "b"}
	counts := runWordCount(t, words, 3, 2, 4)
	want := map[string]int{"a": 3, "b": 2, "c": 1}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("count[%q] = %d, want %d", k, counts[k], v)
		}
	}
}

func TestDeterministicAcrossParallelismAndShards(t *testing.T) {
	var words []string
	for i := 0; i < 200; i++ {
		words = append(words, fmt.Sprintf("w%d", i%17))
	}
	base := runWordCount(t, words, 1, 1, 1)
	for _, cfg := range []struct{ shards, reducers, par int }{
		{4, 3, 8}, {7, 5, 2}, {10, 1, 16}, {3, 7, 3},
	} {
		got := runWordCount(t, words, cfg.shards, cfg.reducers, cfg.par)
		if len(got) != len(base) {
			t.Fatalf("cfg %+v: %d keys, want %d", cfg, len(got), len(base))
		}
		for k, v := range base {
			if got[k] != v {
				t.Errorf("cfg %+v: count[%q] = %d, want %d", cfg, k, got[k], v)
			}
		}
	}
}

// Property: word counts equal a sequential reference for random inputs.
func TestWordCountMatchesReferenceProperty(t *testing.T) {
	f := func(ws []uint8, shards, reducers uint8) bool {
		if len(ws) == 0 {
			return true
		}
		words := make([]string, len(ws))
		ref := map[string]int{}
		for i, w := range ws {
			words[i] = fmt.Sprintf("k%d", w%11)
			ref[words[i]]++
		}
		fs := dfs.NewMem()
		recs := make([][]byte, len(words))
		for i, w := range words {
			recs[i] = []byte(w)
		}
		if err := WriteInput(fs, "in/w", recs, int(shards%5)+1); err != nil {
			return false
		}
		res, err := Run(wordCountJob(fs, "in/w", "out/c", int(reducers%4)+1, 4))
		if err != nil || res == nil {
			return false
		}
		out, err := ReadOutput(fs, "out/c")
		if err != nil {
			return false
		}
		got := map[string]int{}
		for _, r := range out {
			parts := strings.SplitN(string(r), "=", 2)
			got[parts[0]], _ = strconv.Atoi(parts[1])
		}
		if len(got) != len(ref) {
			return false
		}
		for k, v := range ref {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
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
	job := Job{
		Name: "upper", FS: fs, InputBase: "in/r", OutputBase: "out/r",
		Parallelism: 8,
		Mapper: MapFunc(func(_ *TaskContext, rec []byte, emit Emitter) error {
			emit("", bytes.ToUpper(rec))
			return nil
		}),
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.MapTasks != 5 || res.ReduceTasks != 0 {
		t.Errorf("tasks = %d map, %d reduce", res.MapTasks, res.ReduceTasks)
	}
	out, err := ReadOutput(fs, "out/r")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 50 {
		t.Fatalf("output records = %d, want 50", len(out))
	}
	// Map-only keeps shard alignment: output shard i mirrors input shard i.
	// Round-robin staging puts record j in shard j%5, so reading shards in
	// order yields records grouped by residue class, each in input order.
	idx := 0
	for s := 0; s < 5; s++ {
		for j := s; j < 50; j += 5 {
			want := strings.ToUpper(fmt.Sprintf("r%03d", j))
			if string(out[idx]) != want {
				t.Fatalf("out[%d] = %q, want %q", idx, out[idx], want)
			}
			idx++
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
			emit("", rec)
			return nil
		},
		teardown: func(*TaskContext) error {
			mu.Lock()
			teardowns++
			mu.Unlock()
			return nil
		},
	}
	if _, err := Run(Job{Name: "hooked", FS: fs, InputBase: "in/w", OutputBase: "out/w", Mapper: m, Parallelism: 2}); err != nil {
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
func (h *hookedMapper) Map(c *TaskContext, r []byte, e Emitter) error {
	return h.mapFn(c, r, e)
}
func (h *hookedMapper) Teardown(c *TaskContext) error { return h.teardown(c) }

func TestFailureInjectionRetriesAndSucceeds(t *testing.T) {
	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", []string{"a", "a", "b"}, 2)
	var mu sync.Mutex
	failed := map[string]int{}
	job := wordCountJob(fs, "in/w", "out/w", 2, 4)
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
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != res.MapTasks+res.ReduceTasks {
		t.Errorf("failed tasks = %d, want %d", len(failed), res.MapTasks+res.ReduceTasks)
	}
	// Exactly-once output despite retries.
	out, err := ReadOutput(fs, "out/w")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(recordsToStrings(out), ",")
	if !strings.Contains(joined, "a=2") || !strings.Contains(joined, "b=1") {
		t.Errorf("output after retries = %v", joined)
	}
	// Only the winning attempt's counters are merged, and records must not
	// be duplicated.
	if len(out) != 2 {
		t.Errorf("output records = %d, want 2", len(out))
	}
}

func TestFailureExhaustsAttempts(t *testing.T) {
	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", []string{"a"}, 1)
	job := wordCountJob(fs, "in/w", "out/w", 1, 1)
	job.MaxAttempts = 2
	job.FailureHook = func(taskID string, attempt int) error {
		return errors.New("permanent failure")
	}
	if _, err := Run(job); err == nil {
		t.Fatal("job with permanent failures should fail")
	}
	// No partial output may be committed.
	if _, err := dfs.ListShards(fs, "out/w"); err == nil {
		t.Error("failed job committed output shards")
	}
}

func TestMapErrorPropagates(t *testing.T) {
	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", []string{"boom"}, 1)
	job := Job{
		Name: "failing", FS: fs, InputBase: "in/w", OutputBase: "out/w",
		MaxAttempts: 1,
		Mapper: MapFunc(func(_ *TaskContext, rec []byte, _ Emitter) error {
			return fmt.Errorf("bad record %q", rec)
		}),
	}
	if _, err := Run(job); err == nil || !strings.Contains(err.Error(), "bad record") {
		t.Errorf("err = %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	fs := dfs.NewMem()
	if _, err := Run(Job{Name: "x", FS: fs}); err == nil {
		t.Error("job without mapper accepted")
	}
	m := MapFunc(func(*TaskContext, []byte, Emitter) error { return nil })
	if _, err := Run(Job{Name: "x", FS: fs, Mapper: m, NumReducers: 2}); err == nil {
		t.Error("reducers without Reducer accepted")
	}
	if _, err := Run(Job{Name: "x", Mapper: m}); err == nil {
		t.Error("job without FS accepted")
	}
	if _, err := Run(Job{Name: "x", FS: fs, Mapper: m, InputBase: "missing"}); err == nil {
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
	if c.Get("n") != 2000 {
		t.Errorf("counter = %d, want 2000", c.Get("n"))
	}
	snap := c.Snapshot()
	c.Inc("n", 1)
	if snap["n"] != 2000 {
		t.Error("Snapshot aliases live counters")
	}
}

func TestCountRecords(t *testing.T) {
	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", []string{"a", "b", "c", "d", "e"}, 2)
	n, err := CountRecords(fs, "in/w")
	if err != nil || n != 5 {
		t.Errorf("CountRecords = %d, %v", n, err)
	}
}

// TestStagedCountAndOrder: StagedCount trusts the sidecar only while it
// matches the committed shards and scans otherwise, and ReadStaged restores
// staging order from the round-robin layout — refusing a shard set that
// round-robin staging could not have produced.
func TestStagedCountAndOrder(t *testing.T) {
	fs := dfs.NewMem()
	words := []string{"a", "b", "c", "d", "e", "f", "g"}
	w, err := NewInputWriter(fs, "in/w", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, word := range words {
		if err := w.Append([]byte(word)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, err := StagedCount(fs, "in/w"); err != nil || n != 7 {
		t.Fatalf("StagedCount = %d, %v", n, err)
	}
	recs, err := ReadStaged(fs, "in/w")
	if err != nil || strings.Join(recordsToStrings(recs), "") != "abcdefg" {
		t.Fatalf("ReadStaged = %q, %v", recordsToStrings(recs), err)
	}

	// Restage fewer records without refreshing the sidecar: the stale count
	// (7) must lose to a scan of what is actually committed (5).
	stageWords(t, fs, "in/w", words[:5], 3)
	if n, err := StagedCount(fs, "in/w"); err != nil || n != 5 {
		t.Fatalf("StagedCount over a stale sidecar = %d, %v; want 5 from the scan", n, err)
	}

	// Shard 0 of 2 holding one record while shard 1 holds three is not a
	// round-robin layout.
	var one, three bytes.Buffer
	if err := recordio.WriteAll(&one, [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := recordio.WriteAll(&three, [][]byte{[]byte("p"), []byte("q"), []byte("r")}); err != nil {
		t.Fatal(err)
	}
	if err := dfs.PublishShard(fs, "in/bad", 0, 2, one.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := dfs.PublishShard(fs, "in/bad", 1, 2, three.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStaged(fs, "in/bad"); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Fatalf("ReadStaged over a non-round-robin set = %v", err)
	}
}

func TestReadOutputCorruptShard(t *testing.T) {
	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", []string{"aaaa", "bbbb"}, 1)
	if err := fs.Corrupt(dfs.ShardPath("in/w", 0, 1), 14); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadOutput(fs, "in/w"); err == nil {
		t.Error("corrupt shard read without error")
	}
}

func recordsToStrings(recs [][]byte) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	return out
}

// batchUpper is a BatchMapper: one MapBatch call per task's records.
type batchUpper struct {
	mu        sync.Mutex
	batchSize []int
}

func (m *batchUpper) Setup(*TaskContext) error    { return nil }
func (m *batchUpper) Teardown(*TaskContext) error { return nil }
func (m *batchUpper) Map(*TaskContext, []byte, Emitter) error {
	return errors.New("Map must not be called when MapBatch is implemented")
}
func (m *batchUpper) MapBatch(_ *TaskContext, records [][]byte, emit Emitter) error {
	m.mu.Lock()
	m.batchSize = append(m.batchSize, len(records))
	m.mu.Unlock()
	for _, rec := range records {
		emit("", []byte(strings.ToUpper(string(rec))))
	}
	return nil
}

// TestBatchMapperGetsWholeShards: the engine hands each task's records to
// MapBatch in one call, output equals the record-at-a-time job.
func TestBatchMapperGetsWholeShards(t *testing.T) {
	fs := dfs.NewMem()
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"}
	stageWords(t, fs, "in/w", words, 3)
	m := &batchUpper{}
	res, err := Run(Job{
		Name: "batch-upper", FS: fs,
		InputBase: "in/w", OutputBase: "out/w",
		Mapper: m, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OutputShards) != 3 {
		t.Fatalf("output shards = %d", len(res.OutputShards))
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
	out, err := ReadOutput(fs, "out/w")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, rec := range out {
		got[string(rec)] = true
	}
	for _, w := range words {
		if !got[strings.ToUpper(w)] {
			t.Errorf("missing output for %q", w)
		}
	}
}

func TestCollectOutputReturnsWithoutCommitting(t *testing.T) {
	fs := dfs.NewMem()
	var recs [][]byte
	for i := 0; i < 30; i++ {
		recs = append(recs, []byte(fmt.Sprintf("r%03d", i)))
	}
	if err := WriteInput(fs, "in/c", recs, 4); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Job{
		Name: "collect", FS: fs, InputBase: "in/c", CollectOutput: true,
		Parallelism: 8,
		Mapper: MapFunc(func(_ *TaskContext, rec []byte, emit Emitter) error {
			emit("", bytes.ToUpper(rec))
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OutputShards) != 0 {
		t.Errorf("collect mode committed shards: %v", res.OutputShards)
	}
	if len(res.MapOutputs) != 4 {
		t.Fatalf("MapOutputs for %d shards, want 4", len(res.MapOutputs))
	}
	// Per-shard outputs line up with the round-robin staging layout.
	for s, shard := range res.MapOutputs {
		want := 0
		for j := s; j < 30; j += 4 {
			if got := string(shard[want]); got != strings.ToUpper(fmt.Sprintf("r%03d", j)) {
				t.Fatalf("shard %d output %d = %q", s, want, got)
			}
			want++
		}
		if len(shard) != want {
			t.Fatalf("shard %d has %d outputs, want %d", s, len(shard), want)
		}
	}
	// Nothing new appeared on the filesystem.
	paths, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if !strings.HasPrefix(p, "in/c") {
			t.Errorf("collect mode wrote %s", p)
		}
	}
	// Collect with reducers is rejected up front.
	if _, err := Run(Job{
		Name: "bad", FS: fs, InputBase: "in/c", CollectOutput: true, NumReducers: 2,
		Mapper:  MapFunc(func(_ *TaskContext, _ []byte, _ Emitter) error { return nil }),
		Reducer: ReduceFunc(func(_ *TaskContext, _ string, _ [][]byte, _ Emitter) error { return nil }),
	}); err == nil {
		t.Error("CollectOutput with reducers accepted")
	}
}
