package drybell_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/labelmodel"
	"repro/pkg/drybell"
	"repro/pkg/drybell/lf"
)

// doc is a minimal example type exercising the SDK exactly as an external
// caller would: no internal packages, a JSON codec, keyword-based LFs.
type doc struct {
	ID   int    `json:"id"`
	Text string `json:"text"`
}

func encodeDoc(d doc) ([]byte, error) { return json.Marshal(d) }

func decodeDoc(b []byte) (doc, error) {
	var d doc
	err := json.Unmarshal(b, &d)
	return d, err
}

func makeDocs(n int) []doc {
	docs := make([]doc, n)
	for i := range docs {
		text := "plain report on infrastructure"
		if i%3 == 0 {
			text = "celebrity gossip from the redcarpet"
		}
		docs[i] = doc{ID: i, Text: text}
	}
	return docs
}

func keywordLF(name, keyword string, onHit drybell.Label) drybell.LF[doc] {
	return lf.New(
		drybell.Meta{Name: name, Category: drybell.ContentHeuristic, Servable: true},
		func(d doc) drybell.Label {
			if strings.Contains(d.Text, keyword) {
				return onHit
			}
			return drybell.Abstain
		},
	)
}

func testRunners() []drybell.LF[doc] {
	return []drybell.LF[doc]{
		keywordLF("kw_gossip", "gossip", drybell.Positive),
		keywordLF("kw_redcarpet", "redcarpet", drybell.Positive),
		keywordLF("kw_infra", "infrastructure", drybell.Negative),
	}
}

func newPipeline(t *testing.T, extra ...drybell.Option) *drybell.Pipeline[doc] {
	t.Helper()
	opts := append([]drybell.Option{
		drybell.WithCodec(encodeDoc, decodeDoc),
		drybell.WithShards(4),
		drybell.WithParallelism(2),
		drybell.WithLabelModel(drybell.LabelModelOptions{Steps: 60, Seed: 5}),
	}, extra...)
	p, err := drybell.New[doc](opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func TestRunEndToEndWithHooks(t *testing.T) {
	var events []drybell.StageEvent
	p := newPipeline(t, drybell.WithStageHook(func(ev drybell.StageEvent) {
		events = append(events, ev)
	}))

	docs := makeDocs(300)
	res, err := p.Run(context.Background(), drybell.SliceSource(docs), testRunners())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := len(res.Posteriors); got != len(docs) {
		t.Fatalf("posteriors = %d, want %d", got, len(docs))
	}
	for i, pr := range res.Posteriors {
		if pr < 0 || pr > 1 {
			t.Fatalf("posterior %d = %v out of [0,1]", i, pr)
		}
	}
	if res.LabelsPath != p.LabelsPath() {
		t.Fatalf("LabelsPath = %q, want %q", res.LabelsPath, p.LabelsPath())
	}

	// The persisted labels round-trip through the filesystem hand-off.
	labels, err := p.Labels()
	if err != nil {
		t.Fatalf("Labels: %v", err)
	}
	if len(labels) != len(docs) {
		t.Fatalf("read %d labels, want %d", len(labels), len(docs))
	}
	for i := range labels {
		if labels[i] != res.Posteriors[i] {
			t.Fatalf("label %d = %v, want %v", i, labels[i], res.Posteriors[i])
		}
	}

	// One structured event per stage, in pipeline order, all successful.
	wantStages := []drybell.StageName{
		drybell.StageStage, drybell.StageExecuteLFs, drybell.StageAnalyze,
		drybell.StageDenoise, drybell.StagePersist,
	}
	if len(events) != len(wantStages) {
		t.Fatalf("got %d stage events, want %d", len(events), len(wantStages))
	}
	for i, ev := range events {
		if ev.Stage != wantStages[i] {
			t.Fatalf("event %d stage = %q, want %q", i, ev.Stage, wantStages[i])
		}
		if ev.Err != nil {
			t.Fatalf("event %q carries error: %v", ev.Stage, ev.Err)
		}
		if ev.Examples != len(docs) {
			t.Fatalf("event %q examples = %d, want %d", ev.Stage, ev.Examples, len(docs))
		}
	}
	execEv := events[1]
	if execEv.Report == nil || len(execEv.Report.PerLF) != 3 {
		t.Fatalf("execute-lfs event report = %+v, want 3 per-LF entries", execEv.Report)
	}
	if events[2].Analysis == nil || len(events[2].Analysis.PerLF) != 3 {
		t.Fatalf("analyze event analysis = %+v, want 3 per-LF rows", events[2].Analysis)
	}
	if events[4].LabelsPath != p.LabelsPath() {
		t.Fatalf("persist event path = %q, want %q", events[4].LabelsPath, p.LabelsPath())
	}
}

func TestStreamingSource(t *testing.T) {
	p := newPipeline(t)
	const n = 200
	// A generator source: examples are produced on the fly, never held in
	// one slice.
	src := func(yield func(doc, error) bool) {
		for i := 0; i < n; i++ {
			if !yield(makeDocs(i + 1)[i], nil) {
				return
			}
		}
	}
	staged, err := p.Stage(context.Background(), src)
	if err != nil {
		t.Fatalf("Stage: %v", err)
	}
	if staged != n {
		t.Fatalf("staged %d, want %d", staged, n)
	}
	matrix, report, err := p.ExecuteLFs(context.Background(), testRunners())
	if err != nil {
		t.Fatalf("ExecuteLFs: %v", err)
	}
	if matrix.NumExamples() != n || report.Examples != n {
		t.Fatalf("matrix %d / report %d examples, want %d", matrix.NumExamples(), report.Examples, n)
	}
}

func TestStageRecordsSkipsCodec(t *testing.T) {
	p := newPipeline(t)
	docs := makeDocs(90)
	records := make([][]byte, len(docs))
	for i, d := range docs {
		b, err := encodeDoc(d)
		if err != nil {
			t.Fatal(err)
		}
		records[i] = b
	}
	n, err := p.StageRecords(context.Background(), drybell.SliceSource(records))
	if err != nil {
		t.Fatalf("StageRecords: %v", err)
	}
	if n != len(docs) {
		t.Fatalf("staged %d, want %d", n, len(docs))
	}
	// The raw-record staging is byte-identical to codec staging: LFs decode
	// and vote as usual.
	matrix, report, err := p.ExecuteLFs(context.Background(), testRunners())
	if err != nil {
		t.Fatalf("ExecuteLFs: %v", err)
	}
	if matrix.NumExamples() != len(docs) || report.Examples != len(docs) {
		t.Fatalf("matrix %d / report %d examples, want %d", matrix.NumExamples(), report.Examples, len(docs))
	}
}

func TestSourceErrorAbortsStaging(t *testing.T) {
	p := newPipeline(t)
	boom := errors.New("upstream exploded")
	src := func(yield func(doc, error) bool) {
		if !yield(doc{ID: 0, Text: "ok"}, nil) {
			return
		}
		yield(doc{}, boom)
	}
	if _, err := p.Stage(context.Background(), src); !errors.Is(err, boom) {
		t.Fatalf("Stage error = %v, want wrapped %v", err, boom)
	}
}

// TestCancellationMidStage proves Pipeline.Run honors context cancellation
// mid-stage: the context is canceled from inside a labeling function while
// its MapReduce job is running, and the pipeline aborts without persisting
// labels.
func TestCancellationMidStage(t *testing.T) {
	p := newPipeline(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var once atomic.Bool
	saboteur := lf.New(
		drybell.Meta{Name: "saboteur", Category: drybell.ContentHeuristic},
		func(d doc) drybell.Label {
			if once.CompareAndSwap(false, true) {
				cancel() // cancel while this LF's job is mid-flight
			}
			return drybell.Abstain
		},
	)
	_, err := p.Run(ctx, drybell.SliceSource(makeDocs(300)), []drybell.LF[doc]{saboteur})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	// The aborted pipeline must not have committed probabilistic labels.
	if _, err := p.Labels(); err == nil {
		t.Fatal("Labels succeeded after canceled run, want error")
	}
}

func TestCancellationBetweenStages(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel as soon as the execute stage completes; Denoise must then
	// refuse to start.
	p := newPipeline(t, drybell.WithStageHook(func(ev drybell.StageEvent) {
		if ev.Stage == drybell.StageExecuteLFs {
			cancel()
		}
	}))
	_, err := p.Run(ctx, drybell.SliceSource(makeDocs(120)), testRunners())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
}

// TestResumeFromDFSState runs each stage in a separate Pipeline sharing one
// filesystem, mimicking the paper's loosely-coupled deployment where
// independent binaries coordinate only through the DFS.
func TestResumeFromDFSState(t *testing.T) {
	fs := drybell.NewMemFS()
	shared := []drybell.Option{
		drybell.WithCodec(encodeDoc, decodeDoc),
		drybell.WithFS(fs),
		drybell.WithWorkDir("resume"),
		drybell.WithShards(3),
		drybell.WithLabelModel(drybell.LabelModelOptions{Steps: 60, Seed: 5}),
	}
	docs := makeDocs(200)
	runners := testRunners()

	// Process 1 stages the corpus.
	p1, err := drybell.New[doc](shared...)
	if err != nil {
		t.Fatalf("New p1: %v", err)
	}
	if _, err := p1.Stage(context.Background(), drybell.SliceSource(docs)); err != nil {
		t.Fatalf("Stage: %v", err)
	}

	// Process 2 executes the labeling functions over the staged corpus.
	p2, err := drybell.New[doc](shared...)
	if err != nil {
		t.Fatalf("New p2: %v", err)
	}
	matrix, _, err := p2.ExecuteLFs(context.Background(), runners)
	if err != nil {
		t.Fatalf("ExecuteLFs: %v", err)
	}

	// Process 3 reloads the votes from the DFS (no re-execution), denoises,
	// and persists.
	p3, err := drybell.New[doc](shared...)
	if err != nil {
		t.Fatalf("New p3: %v", err)
	}
	reloaded, err := p3.LoadMatrix(drybell.Names(runners))
	if err != nil {
		t.Fatalf("LoadMatrix: %v", err)
	}
	if reloaded.NumExamples() != matrix.NumExamples() || reloaded.NumFuncs() != matrix.NumFuncs() {
		t.Fatalf("reloaded matrix %dx%d, want %dx%d",
			reloaded.NumExamples(), reloaded.NumFuncs(), matrix.NumExamples(), matrix.NumFuncs())
	}
	for i := 0; i < matrix.NumExamples(); i++ {
		for j := 0; j < matrix.NumFuncs(); j++ {
			if reloaded.At(i, j) != matrix.At(i, j) {
				t.Fatalf("reloaded[%d,%d] = %d, want %d", i, j, reloaded.At(i, j), matrix.At(i, j))
			}
		}
	}
	_, posteriors, err := p3.Denoise(context.Background(), reloaded)
	if err != nil {
		t.Fatalf("Denoise: %v", err)
	}
	if _, err := p3.Persist(context.Background(), posteriors); err != nil {
		t.Fatalf("Persist: %v", err)
	}

	// The piecewise run matches a one-shot Run over the same inputs.
	oneShot, err := drybell.New[doc](
		drybell.WithCodec(encodeDoc, decodeDoc),
		drybell.WithShards(3),
		drybell.WithLabelModel(drybell.LabelModelOptions{Steps: 60, Seed: 5}),
	)
	if err != nil {
		t.Fatalf("New one-shot: %v", err)
	}
	res, err := oneShot.Run(context.Background(), drybell.SliceSource(docs), runners)
	if err != nil {
		t.Fatalf("one-shot Run: %v", err)
	}
	for i := range posteriors {
		if posteriors[i] != res.Posteriors[i] {
			t.Fatalf("posterior %d: piecewise %v != one-shot %v", i, posteriors[i], res.Posteriors[i])
		}
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []drybell.Option
	}{
		{"missing codec", nil},
		{"nil codec funcs", []drybell.Option{drybell.WithCodec[doc](nil, nil)}},
		{"zero shards", []drybell.Option{drybell.WithCodec(encodeDoc, decodeDoc), drybell.WithShards(0)}},
		{"negative parallelism", []drybell.Option{drybell.WithCodec(encodeDoc, decodeDoc), drybell.WithParallelism(-1)}},
		{"empty workdir", []drybell.Option{drybell.WithCodec(encodeDoc, decodeDoc), drybell.WithWorkDir("")}},
		{"nil fs", []drybell.Option{drybell.WithCodec(encodeDoc, decodeDoc), drybell.WithFS(nil)}},
	}
	for _, tc := range cases {
		if _, err := drybell.New[doc](tc.opts...); err == nil {
			t.Errorf("New with %s succeeded, want error", tc.name)
		}
	}

	// A codec built for one example type cannot configure a pipeline of
	// another.
	if _, err := drybell.New[int](drybell.WithCodec(encodeDoc, decodeDoc)); err == nil {
		t.Error("New[int] with doc codec succeeded, want type-mismatch error")
	}
}

// TestTrainerRegistryValidation: with one trainer left, WithTrainer is a
// shim that accepts only TrainerSamplingFreeFast; New fails on every other
// name, including the deleted trainers', and the error names it.
func TestTrainerRegistryValidation(t *testing.T) {
	for _, name := range []string{"", "samplingfree", "analytic", "gibbs", "no-such-trainer"} {
		_, err := drybell.New[doc](drybell.WithCodec(encodeDoc, decodeDoc), drybell.WithTrainer(name))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
			t.Errorf("New with trainer %q = %v, want naming error", name, err)
		}
	}
	if _, err := drybell.New[doc](drybell.WithCodec(encodeDoc, decodeDoc), drybell.WithTrainer(drybell.TrainerSamplingFreeFast)); err != nil {
		t.Errorf("New with the only trainer: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	p := newPipeline(t)
	if _, err := p.Run(context.Background(), drybell.SliceSource(makeDocs(10)), nil); err == nil {
		t.Fatal("Run with no runners succeeded, want error")
	}
	if _, err := p.Run(context.Background(), drybell.SliceSource([]doc{}), testRunners()); err == nil {
		t.Fatal("Run with empty source succeeded, want error")
	}
}

func ExampleNew() {
	p, err := drybell.New[doc](
		drybell.WithCodec(encodeDoc, decodeDoc),
		drybell.WithShards(2),
		drybell.WithLabelModel(drybell.LabelModelOptions{Steps: 40, Seed: 1}),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := p.Run(context.Background(), drybell.SliceSource(makeDocs(60)), testRunners())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(len(res.Posteriors))
	// Output: 60
}

// TestDevLabelsAnalysis: a pipeline built WithDevLabels reports empirical
// accuracy in the StageAnalyze event and in Result.Analysis.
func TestDevLabelsAnalysis(t *testing.T) {
	docs := makeDocs(120)
	dev := make([]drybell.Label, len(docs))
	for i := range docs {
		if i%3 == 0 {
			dev[i] = drybell.Positive
		} else {
			dev[i] = drybell.Negative
		}
	}
	var analyzeEv *drybell.StageEvent
	p := newPipeline(t,
		drybell.WithDevLabels(dev),
		drybell.WithStageHook(func(ev drybell.StageEvent) {
			if ev.Stage == drybell.StageAnalyze {
				analyzeEv = &ev
			}
		}),
	)
	res, err := p.Run(context.Background(), drybell.SliceSource(docs), testRunners())
	if err != nil {
		t.Fatal(err)
	}
	if res.Analysis == nil || analyzeEv == nil || analyzeEv.Analysis == nil {
		t.Fatal("no analysis surfaced")
	}
	if res.Analysis.DevLabeled != len(docs) {
		t.Errorf("devLabeled = %d, want %d", res.Analysis.DevLabeled, len(docs))
	}
	// kw_gossip fires exactly on the docs dev-labeled positive: perfect
	// empirical accuracy and 1/3 coverage.
	row := res.Analysis.PerLF[0]
	if row.Name != "kw_gossip" || row.EmpiricalAccuracy != 1 {
		t.Errorf("kw_gossip analysis = %+v", row)
	}
	if row.Coverage < 0.33 || row.Coverage > 0.34 {
		t.Errorf("kw_gossip coverage = %v", row.Coverage)
	}

	// A dev set that does not match the corpus fails the run at analysis.
	bad := newPipeline(t, drybell.WithDevLabels(dev[:10]))
	if _, err := bad.Run(context.Background(), drybell.SliceSource(docs), testRunners()); err == nil {
		t.Error("mismatched dev labels accepted")
	}
}

// TestDuplicateLFNamesFailBeforeStaging: duplicate names are rejected up
// front, before any corpus shard is committed.
func TestDuplicateLFNamesFailBeforeStaging(t *testing.T) {
	p := newPipeline(t)
	dup := []drybell.LF[doc]{
		keywordLF("same_name", "gossip", drybell.Positive),
		keywordLF("same_name", "redcarpet", drybell.Positive),
	}
	_, err := p.Run(context.Background(), drybell.SliceSource(makeDocs(50)), dup)
	if err == nil {
		t.Fatal("duplicate LF names accepted")
	}
	if !strings.Contains(err.Error(), "same_name") {
		t.Errorf("error does not name the duplicate: %v", err)
	}
	// Nothing was staged for the doomed run.
	if _, err := drybell.ListShards(p.FS(), p.InputPath()); err == nil {
		t.Error("corpus was staged despite invalid LF set")
	}
}

// TestDenoiseSingularMatrices: vote matrices that leave the label model
// singular — a function that never votes, two identical functions, no votes
// at all, a function that votes positive on every row — still get a defined
// answer: training stops on its own before the step cap, and every label is
// a finite probability.
func TestDenoiseSingularMatrices(t *testing.T) {
	base, _, err := labelmodel.Synthesize(labelmodel.SynthSpec{
		NumExamples:   600,
		PriorPositive: 0.3,
		Accuracies:    []float64{0.9, 0.75, 0.8},
		Propensities:  []float64{0.5, 0.3, 0.6},
		Seed:          17,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, n := base.NumExamples(), base.NumFuncs()
	// withColumn is base plus one more column, vote(i) on row i.
	withColumn := func(vote func(i int) drybell.Label) *drybell.Matrix {
		mx := labelmodel.NewMatrix(m, n+1)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				mx.Set(i, j, base.At(i, j))
			}
			mx.Set(i, n, vote(i))
		}
		return mx
	}
	const steps = 200
	for _, tc := range []struct {
		name string
		mx   *drybell.Matrix
	}{
		{"all-abstain column", withColumn(func(int) drybell.Label { return drybell.Abstain })},
		{"duplicated column", withColumn(func(i int) drybell.Label { return base.At(i, 0) })},
		{"every column empty", labelmodel.NewMatrix(m, n)},
		{"always-positive column", withColumn(func(int) drybell.Label { return drybell.Positive })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := drybell.NewObserver()
			p := newPipeline(t, drybell.WithObserver(o), drybell.WithLabelModel(drybell.LabelModelOptions{Steps: steps}))
			_, posteriors, err := p.Denoise(context.Background(), tc.mx)
			if err != nil {
				t.Fatal(err)
			}
			for i, pr := range posteriors {
				if math.IsNaN(pr) || pr < 0 || pr > 1 {
					t.Fatalf("posterior %d = %v, want a probability", i, pr)
				}
			}
			var stop, iterations any
			for _, s := range o.Trace.Snapshot() {
				if s.Name != "stage.denoise" {
					continue
				}
				for _, a := range s.Attrs {
					switch a.Key {
					case "stop":
						stop = a.Value
					case "iterations":
						iterations = a.Value
					}
				}
			}
			if stop != "converged" && stop != "stalled" {
				t.Errorf("training stopped for %v after %v iterations, want it to stop on its own before %d", stop, iterations, steps)
			}
		})
	}
}
