package drybell

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/labelmodel"
	"repro/internal/obs"
)

// TestDenoisePersistObservable: a batch run and an incremental round compact
// the same way and go through one train→persist tail, so both are observable
// the same way — stage.compact, stage.denoise and stage.persist spans directly
// under the run's root span, the persist span counting every row, the denoise
// span saying why training stopped, and one pipeline_stage_seconds
// observation per stage.
func TestDenoisePersistObservable(t *testing.T) {
	ctx := context.Background()
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 330, PositiveRate: 0.05, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	lfs := apps.TopicLFs(nil, 0.02, 1)
	fs := dfs.NewMem()

	for _, tc := range []struct {
		name, root string
		rows       int
		run        func(p *Pipeline[*corpus.Document]) error
	}{
		{"run", "pipeline.run", 300, func(p *Pipeline[*corpus.Document]) error {
			_, err := p.Run(ctx, SliceSource(docs[:300]), lfs)
			return err
		}},
		{"incremental", "pipeline.incremental", 330, func(p *Pipeline[*corpus.Document]) error {
			if _, err := p.StageDelta(ctx, SliceSource(docs[300:])); err != nil {
				return err
			}
			_, err := p.IncrementalRun(ctx, lfs)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.NewObserver()
			if err := tc.run(topicPipeline(t, fs, WithObserver(o))); err != nil {
				t.Fatal(err)
			}

			byName := map[string]obs.SpanData{}
			for _, s := range o.Trace.Snapshot() {
				byName[s.Name] = s
			}
			root, ok := byName[tc.root]
			if !ok {
				t.Fatalf("no %s span", tc.root)
			}
			for _, stage := range []string{"compact", "denoise", "persist"} {
				span, ok := byName["stage."+stage]
				if !ok {
					t.Errorf("no stage.%s span", stage)
				} else if span.Parent != root.ID {
					t.Errorf("stage.%s is not a child of %s", stage, tc.root)
				}
				h := o.Metrics.Histogram("pipeline_stage_seconds", "Pipeline stage wall time in seconds.",
					obs.DefLatencyBuckets, obs.Label{Key: "stage", Value: stage})
				if h.Count() != 1 {
					t.Errorf("pipeline_stage_seconds{stage=%q} has %d observations, want 1", stage, h.Count())
				}
			}
			if labels := spanAttr(byName["stage.persist"], "labels"); labels != int64(tc.rows) {
				t.Errorf("stage.persist span counts %v labels, want %d", labels, tc.rows)
			}
			if stop := spanAttr(byName["stage.denoise"], "stop"); stop != "converged" && stop != "stalled" {
				t.Errorf("stage.denoise span says training stopped for %v, want converged or stalled", stop)
			}
		})
	}
}

// spanAttr is the value of span's attribute key, nil when it has none.
func spanAttr(span obs.SpanData, key string) any {
	for _, a := range span.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// TestRunCompactsOnce: a run compacts Λ once, in its own stage.compact span
// between execution and analysis, and both the analysis and the trainer read
// that compaction — nothing under stage.denoise compacts again. A round that
// carries the run's compaction compacts only the delta's rows; a round whose
// view was rebuilt compacts all of them.
func TestRunCompactsOnce(t *testing.T) {
	ctx := context.Background()
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 360, PositiveRate: 0.05, Seed: 59})
	if err != nil {
		t.Fatal(err)
	}
	lfs := apps.TopicLFs(nil, 0.02, 1)
	fs := dfs.NewMem()
	o := obs.NewObserver()
	res, err := topicPipeline(t, fs, WithObserver(o)).Run(ctx, SliceSource(docs[:300]), lfs)
	if err != nil {
		t.Fatal(err)
	}
	spans := o.Trace.Snapshot()
	compacts := spansNamed(spans, "stage.compact")
	if len(compacts) != 1 {
		t.Fatalf("run recorded %d stage.compact spans, want 1", len(compacts))
	}
	if root := spansNamed(spans, "pipeline.run"); compacts[0].Parent != root[0].ID {
		t.Error("stage.compact is not a child of pipeline.run")
	}
	denoise := spansNamed(spans, "stage.denoise")[0]
	for _, s := range spans {
		if s.Parent == denoise.ID {
			t.Errorf("stage.denoise has child span %s", s.Name)
		}
	}
	if rows := spanAttr(compacts[0], "rows"); rows != int64(300) {
		t.Errorf("stage.compact rows = %v, want 300", rows)
	}
	if unique := spanAttr(compacts[0], "unique_rows"); unique != int64(res.State.Compact.NumUnique()) {
		t.Errorf("stage.compact unique_rows = %v, the trained compaction has %d", unique, res.State.Compact.NumUnique())
	}
	for j, row := range res.Analysis.PerLF {
		if want := float64(res.State.Compact.Voted[j]) / 300; row.Coverage != want {
			t.Errorf("%s: coverage %v, the trained compaction says %v", row.Name, row.Coverage, want)
		}
	}
	h := o.Metrics.Histogram("pipeline_stage_seconds", "Pipeline stage wall time in seconds.",
		obs.DefLatencyBuckets, obs.Label{Key: "stage", Value: "compact"})
	if h.Count() != 1 {
		t.Errorf("pipeline_stage_seconds{stage=\"compact\"} has %d observations, want 1", h.Count())
	}

	// roundRows is the rows attribute of the one stage.compact span recorded
	// by the round over delta of a pipeline that carries carry.
	roundRows := func(carry carried, delta []*corpus.Document) any {
		t.Helper()
		o := obs.NewObserver()
		p := topicPipeline(t, fs, WithObserver(o))
		p.carried = carry
		if _, err := p.StageDelta(ctx, SliceSource(delta)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.IncrementalRun(ctx, lfs); err != nil {
			t.Fatal(err)
		}
		compacts := spansNamed(o.Trace.Snapshot(), "stage.compact")
		if len(compacts) != 1 {
			t.Fatalf("round recorded %d stage.compact spans, want 1", len(compacts))
		}
		return spanAttr(compacts[0], "rows")
	}
	if rows := roundRows(carried{state: res.State, view: res.View}, docs[300:340]); rows != int64(40) {
		t.Errorf("carried round compacted %v rows, want the delta's 40", rows)
	}
	if rows := roundRows(carried{}, docs[340:]); rows != int64(360) {
		t.Errorf("round without state compacted %v rows, want all 360", rows)
	}
}

// spansNamed is the spans called name, in snapshot order.
func spansNamed(spans []obs.SpanData, name string) []obs.SpanData {
	var out []obs.SpanData
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// TestExecuteTailObservable: the work between the vote job and training
// decomposes. lf.execute has an lf.assemble child next to the map job's span,
// saying how many rows it assembled from how many shards on how many
// workers, and an lf.publish child saying how many shards and bytes it wrote;
// stage.compact says how many chunks the compaction split into.
func TestExecuteTailObservable(t *testing.T) {
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 300, PositiveRate: 0.05, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	lfs := apps.TopicLFs(nil, 0.02, 1)
	o := obs.NewObserver()
	p := topicPipeline(t, dfs.NewMem(), WithParallelism(3), WithObserver(o))
	if _, err := p.Run(context.Background(), SliceSource(docs), lfs); err != nil {
		t.Fatal(err)
	}
	spans := o.Trace.Snapshot()
	execute := spansNamed(spans, "lf.execute")
	if len(execute) != 1 {
		t.Fatalf("%d lf.execute spans, want 1", len(execute))
	}
	for _, tc := range []struct {
		name  string
		attrs map[string]any
	}{
		{"lf.assemble", map[string]any{"rows": int64(300), "shards": int64(4), "workers": int64(3)}},
		{"lf.publish", map[string]any{"shards": int64(4), "bytes": int64(4*4 + 300*len(lfs))}}, // a 4-byte magic per shard
	} {
		got := spansNamed(spans, tc.name)
		if len(got) != 1 {
			t.Fatalf("%d %s spans, want 1", len(got), tc.name)
		}
		if got[0].Parent != execute[0].ID {
			t.Errorf("%s is not a child of lf.execute", tc.name)
		}
		for key, want := range tc.attrs {
			if v := spanAttr(got[0], key); v != want {
				t.Errorf("%s %s = %v, want %v", tc.name, key, v, want)
			}
		}
	}
	if chunks := spanAttr(spansNamed(spans, "stage.compact")[0], "chunks"); chunks != int64(1) {
		t.Errorf("stage.compact chunks = %v for 300 rows, want 1", chunks)
	}
}

// observedRound runs Run over 250 topic documents and a round over a staged
// 50-document delta on an observed pipeline built with opts. It returns the
// observer, the task attempts and keyword_celebrity's vote seconds the
// registry held after Run, and the round's result.
func observedRound(t *testing.T, opts ...Option) (*obs.Observer, int64, float64, *IncrementalResult) {
	t.Helper()
	ctx := context.Background()
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 300, PositiveRate: 0.05, Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	lfs := apps.TopicLFs(nil, 0.02, 1)
	o := obs.NewObserver()
	p := topicPipeline(t, dfs.NewMem(), append(opts, WithObserver(o))...)
	if _, err := p.Run(ctx, SliceSource(docs[:250]), lfs); err != nil {
		t.Fatal(err)
	}
	attempts, voteSeconds := taskAttempts(o).Value(), celebrityVoteSeconds(o).Value()
	if _, err := p.StageDelta(ctx, SliceSource(docs[250:])); err != nil {
		t.Fatal(err)
	}
	res, err := p.IncrementalRun(ctx, lfs)
	if err != nil {
		t.Fatal(err)
	}
	return o, attempts, voteSeconds, res
}

func taskAttempts(o *obs.Observer) *obs.Counter {
	return o.Metrics.Counter("pipeline_task_attempts_total",
		"MapReduce task attempts launched by labeling-function execution, including retries.")
}

func celebrityVoteSeconds(o *obs.Observer) *obs.Gauge {
	return o.Metrics.Gauge("pipeline_lf_vote_seconds_total",
		"Vote time per labeling function, summed over map tasks and corpus-fit passes (only ever added to).",
		obs.Label{Key: "lf", Value: "keyword_celebrity"})
}

// TestRoundReportsThroughBatchTelemetry: a round's delta jobs report through
// the series a batch execution reports through — task attempts, per-function
// vote time, the execute-lfs stage — and a round analyzes its view, without
// the dev labels, which align with the batch corpus and not with the grown
// view.
func TestRoundReportsThroughBatchTelemetry(t *testing.T) {
	o, attempts, voteSeconds, res := observedRound(t)
	if res.DeltaTaskAttempts == 0 {
		t.Fatal("the round launched no delta task")
	}
	if got := taskAttempts(o).Value(); got != attempts+int64(res.DeltaTaskAttempts) {
		t.Errorf("pipeline_task_attempts_total = %d after the round, want %d after Run + the round's %d",
			got, attempts, res.DeltaTaskAttempts)
	}
	if got := celebrityVoteSeconds(o).Value(); got <= voteSeconds {
		t.Errorf(`pipeline_lf_vote_seconds_total{lf="keyword_celebrity"} = %v after the round, %v after Run: the delta's votes went uncounted`,
			got, voteSeconds)
	}
	h := o.Metrics.Histogram("pipeline_stage_seconds", "Pipeline stage wall time in seconds.",
		obs.DefLatencyBuckets, obs.Label{Key: "stage", Value: "execute-lfs"})
	if h.Count() != 2 {
		t.Errorf(`pipeline_stage_seconds{stage="execute-lfs"} has %d observations, want 2 (Run and the round)`, h.Count())
	}
	if res.LFReport != nil {
		t.Error("a round returned an LFReport")
	}

	dev := make([]labelmodel.Label, 250) // one per document Run staged
	for i := range dev {
		dev[i] = labelmodel.Negative
	}
	_, _, _, res = observedRound(t, WithDevLabels(dev))
	if res.Analysis == nil {
		t.Fatal("the round returned no analysis")
	}
	if res.Analysis.DevLabeled != 0 {
		t.Errorf("the round's analysis counted %d dev labels, want 0: they align with the batch corpus", res.Analysis.DevLabeled)
	}
}

// TestIncrementalSpanAttributes pins the attributes of a round's root span.
func TestIncrementalSpanAttributes(t *testing.T) {
	o, _, _, res := observedRound(t)
	roots := spansNamed(o.Trace.Snapshot(), "pipeline.incremental")
	if len(roots) != 1 {
		t.Fatalf("%d pipeline.incremental spans, want 1", len(roots))
	}
	want := map[string]any{
		"workdir":             "drybell",
		"functions":           int64(len(apps.TopicLFs(nil, 0.02, 1))),
		"delta_examples":      int64(50),
		"delta_task_attempts": int64(res.DeltaTaskAttempts),
		"generations":         int64(1),
		"warm_iterations":     int64(res.WarmIterations),
		"warm_started":        true,
		"view_carried":        true,
		"segments_scanned":    int64(1),
		"rows_scanned":        int64(50),
	}
	got := map[string]any{}
	for _, a := range roots[0].Attrs {
		got[a.Key] = a.Value
	}
	if len(got) != len(want) {
		t.Errorf("pipeline.incremental attributes = %v, want %v", got, want)
	}
	for key, v := range want {
		if got[key] != v {
			t.Errorf("pipeline.incremental %s = %v, want %v", key, got[key], v)
		}
	}
}
