package drybell_test

import (
	"bytes"
	"context"
	"encoding/json"
	"path"
	"strings"
	"sync"
	"testing"

	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/pkg/drybell"
	"repro/pkg/drybell/lf"
)

// handCountFS counts every operation started and every byte moved through it
// by hand, the oracle obs.InstrumentedFS.Counts is held to.
type handCountFS struct {
	drybell.FS
	mu sync.Mutex
	n  obs.FSCounts
}

func (h *handCountFS) count(op *int64, bytes *int64, size int, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	*op++
	if err == nil && bytes != nil {
		*bytes += int64(size)
	}
}

func (h *handCountFS) WriteFile(path string, data []byte) error {
	err := h.FS.WriteFile(path, data)
	h.count(&h.n.Writes, &h.n.WrittenBytes, len(data), err)
	return err
}

func (h *handCountFS) ReadFile(path string) ([]byte, error) {
	data, err := h.FS.ReadFile(path)
	h.count(&h.n.Reads, &h.n.ReadBytes, len(data), err)
	return data, err
}

func (h *handCountFS) Rename(oldPath, newPath string) error {
	err := h.FS.Rename(oldPath, newPath)
	h.count(&h.n.Renames, nil, 0, err)
	return err
}

func (h *handCountFS) Remove(path string) error {
	err := h.FS.Remove(path)
	h.count(&h.n.Removes, nil, 0, err)
	return err
}

func (h *handCountFS) List(prefix string) ([]string, error) {
	names, err := h.FS.List(prefix)
	h.count(&h.n.Lists, nil, 0, err)
	return names, err
}

func (h *handCountFS) Stat(path string) (int64, error) {
	size, err := h.FS.Stat(path)
	h.count(&h.n.Stats, nil, 0, err)
	return size, err
}

// TestInstrumentFSMatchesHandCount: the typed counts of an instrumented
// filesystem equal a hand count of the same operations over a base run, a
// staged delta, its round and a compaction.
func TestInstrumentFSMatchesHandCount(t *testing.T) {
	ctx := context.Background()
	hand := &handCountFS{FS: drybell.NewMemFS()}
	fs := obs.InstrumentFS(hand, obs.NewRegistry()).(*obs.InstrumentedFS)
	p := newPipeline(t, drybell.WithFS(fs))
	docs := makeDocs(400)
	if _, err := p.Run(ctx, drybell.SliceSource(docs[:300]), testRunners()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StageDelta(ctx, drybell.SliceSource(docs[300:]), 7); err != nil {
		t.Fatal(err)
	}
	if _, err := p.IncrementalRun(ctx, testRunners()); err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	got := fs.Counts()
	if got != hand.n {
		t.Errorf("Counts() = %+v, hand count %+v", got, hand.n)
	}
	if got.Writes == 0 || got.Reads == 0 || got.Renames == 0 || got.Removes == 0 || got.Lists == 0 {
		t.Errorf("Counts() = %+v: the workload missed an operation kind", got)
	}
}

// traceEvent mirrors the Chrome trace-event fields the assertions need.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur"`
	Args  map[string]any `json:"args"`
}

// TestRunExportsTraceArtifact is the observability acceptance test: a full
// pipeline run with an observer attached — under injected faults forcing a
// retry — writes a valid Chrome trace-event timeline to
// "<workdir>/_obs/trace.json" on the DFS, with the pipeline, every stage,
// every MapReduce job, and every task attempt (the killed one included) as
// properly nested spans.
func TestRunExportsTraceArtifact(t *testing.T) {
	fault := dfs.NewFaultFS(dfs.NewMem(), 11)
	// Exactly one input-shard read fails inside a map task: one task attempt
	// dies and its retry must appear in the trace alongside the failure.
	fault.FailNext(dfs.OpRead, "input/examples-00000", 1)

	o := drybell.NewObserver()
	p := newPipeline(t, drybell.WithFS(fault), drybell.WithObserver(o))
	if _, err := p.Run(context.Background(), drybell.SliceSource(makeDocs(120)), testRunners()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fault.Injected() != 1 {
		t.Fatalf("injected faults = %d, want 1", fault.Injected())
	}

	raw, err := p.FS().ReadFile(path.Join(p.WorkDir(), "_obs", "trace.json"))
	if err != nil {
		t.Fatalf("trace artifact missing: %v", err)
	}
	var trace struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace artifact is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", trace.DisplayTimeUnit)
	}

	// Index the complete ("X") events by span ID for nesting checks.
	spans := map[float64]traceEvent{}
	byName := map[string][]traceEvent{}
	var failedAttempts int
	for _, ev := range trace.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		if ev.TS < 0 || ev.Dur < 1 {
			t.Errorf("span %q has ts=%d dur=%d; want ts >= 0, dur >= 1", ev.Name, ev.TS, ev.Dur)
		}
		spans[ev.Args["span_id"].(float64)] = ev
		byName[ev.Name] = append(byName[ev.Name], ev)
		if ev.Args["error"] != nil && ev.Args["outcome"] == "failed" {
			failedAttempts++
		}
	}

	for _, want := range []string{"pipeline.run", "stage.input", "lf.execute", "stage.analyze", "stage.denoise", "stage.persist"} {
		if len(byName[want]) != 1 {
			t.Errorf("trace has %d %q spans, want 1", len(byName[want]), want)
		}
	}
	var jobs, attempts int
	for name, evs := range byName {
		switch {
		case strings.HasPrefix(name, "mapreduce:"):
			jobs += len(evs)
		case strings.Contains(name, "#"):
			attempts += len(evs)
		}
	}
	if jobs == 0 {
		t.Error("no MapReduce job spans in trace")
	}
	if attempts <= jobs {
		t.Errorf("%d attempt spans for %d jobs; every task attempt should be a span", attempts, jobs)
	}
	if failedAttempts != 1 {
		t.Errorf("%d attempt spans carry error status, want 1 (the killed attempt)", failedAttempts)
	}

	// Every span's parent exists and contains it in time; roots hang off
	// pipeline.run alone.
	root := byName["pipeline.run"][0]
	for _, ev := range spans {
		parent := ev.Args["parent_id"].(float64)
		if parent == 0 {
			if ev.Name != "pipeline.run" {
				t.Errorf("span %q is an orphan root", ev.Name)
			}
			continue
		}
		p, ok := spans[parent]
		if !ok {
			t.Errorf("span %q references unknown parent %v", ev.Name, parent)
			continue
		}
		if ev.TS < p.TS || ev.TS > p.TS+p.Dur {
			t.Errorf("span %q (ts=%d) starts outside parent %q [%d,%d]", ev.Name, ev.TS, p.Name, p.TS, p.TS+p.Dur)
		}
	}
	if root.Args["workdir"] != p.WorkDir() {
		t.Errorf("pipeline.run workdir = %v, want %q", root.Args["workdir"], p.WorkDir())
	}

	// The shared registry saw every layer: stage timings, runtime attempt
	// counters, and per-op DFS metrics from the instrumented filesystem.
	var buf bytes.Buffer
	if err := drybell.WriteMetrics(&buf, o); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	exposition := buf.String()
	for _, want := range []string{
		"pipeline_stage_seconds",
		"pipeline_task_attempts_total",
		`pipeline_lf_vote_seconds_total{lf="`,
		"dfs_ops_total",
		"dfs_op_seconds",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("Prometheus exposition missing %s", want)
		}
	}
}

// TestStageMethodsRecordSpans: each Pipeline stage method called on its own
// records its stage's span on the observer, Analyze included.
func TestStageMethodsRecordSpans(t *testing.T) {
	ctx := context.Background()
	o := drybell.NewObserver()
	p := newPipeline(t, drybell.WithObserver(o))
	if _, err := p.Stage(ctx, drybell.SliceSource(makeDocs(90))); err != nil {
		t.Fatal(err)
	}
	matrix, _, err := p.ExecuteLFs(ctx, testRunners())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Analyze(matrix, lf.Metas(testRunners())); err != nil {
		t.Fatal(err)
	}
	_, posteriors, err := p.Denoise(ctx, matrix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Persist(ctx, posteriors); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, s := range o.Trace.Snapshot() {
		count[s.Name]++
	}
	for _, want := range []string{"stage.input", "lf.execute", "stage.analyze", "stage.denoise", "stage.persist"} {
		if count[want] != 1 {
			t.Errorf("%d %q spans, want 1", count[want], want)
		}
	}
}

// TestStageDeltaRecordsSpan: StageDelta on a WithObserver pipeline records
// its stage.delta span on the observer, as every other stage method does.
func TestStageDeltaRecordsSpan(t *testing.T) {
	ctx := context.Background()
	o := drybell.NewObserver()
	p := newPipeline(t, drybell.WithObserver(o))
	docs := makeDocs(120)
	if _, err := p.Run(ctx, drybell.SliceSource(docs[:90]), testRunners()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StageDelta(ctx, drybell.SliceSource(docs[90:])); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range o.Trace.Snapshot() {
		if s.Name == "stage.delta" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d stage.delta spans, want 1", n)
	}
}

// TestWriteTraceWithoutRun: WriteTrace on a fresh or absent observer is a
// well-formed no-op — the CLI -trace path must not fail on an empty tracer.
func TestWriteTraceWithoutRun(t *testing.T) {
	var buf bytes.Buffer
	if err := drybell.WriteTrace(&buf, drybell.NewObserver()); err != nil {
		t.Fatal(err)
	}
	var trace map[string]any
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if err := drybell.WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := drybell.WriteMetrics(&buf, nil); err != nil {
		t.Fatal(err)
	}
}
