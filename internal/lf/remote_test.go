package lf

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/labelmodel"
	"repro/internal/mapreduce/remote"
	"repro/internal/obs"
	lfapi "repro/pkg/drybell/lf"
)

// engagementLF is a two-pass function: it votes positive above the corpus
// mean of the documents' engagement scores, which it must fit first.
func engagementLF() *lfapi.AggregateFunc[*corpus.Document] {
	return &lfapi.AggregateFunc[*corpus.Document]{
		Meta:    lfapi.Meta{Name: "above_mean_engagement", Category: lfapi.SourceHeuristic},
		Extract: func(d *corpus.Document) float64 { return d.Crawler.EngagementScore },
		VoteWith: func(_ *corpus.Document, v float64, s lfapi.Summary) labelmodel.Label {
			if v > s.Mean {
				return labelmodel.Positive
			}
			return labelmodel.Negative
		},
	}
}

// TestRemoteWorkerFitsCorpus: a remote worker's vote job fits its own copy
// of a two-pass function over the staged corpus before it votes, and the
// votes equal the in-process run's. The coordinator fits its copy once, in
// one "lf.fit" span; the worker's fit is outside the coordinator's trace.
func TestRemoteWorkerFitsCorpus(t *testing.T) {
	docs := testDocs()
	for i, d := range docs {
		d.Crawler.EngagementScore = float64(i) / 4
	}
	local := dfs.NewMem()
	stageDocs(t, local, docs, 2)
	wantView, _, err := docExecutor(local).ExecuteContext(context.Background(), []lfapi.LF[*corpus.Document]{engagementLF(), keywordLF()})
	if err != nil {
		t.Fatal(err)
	}
	want := wantView.Matrix

	// The worker runs in this process, so it must hold its own instances: a
	// function the coordinator fitted would report Fitted() and skip the
	// worker's pass.
	workerAgg := engagementLF()
	reg := remote.NewRegistry()
	if err := RegisterVoteJobs(reg, []lfapi.LF[*corpus.Document]{workerAgg, keywordLF()}, corpus.UnmarshalDocument); err != nil {
		t.Fatal(err)
	}
	fs := dfs.NewMem()
	stageDocs(t, fs, docs, 2)
	pool, err := remote.NewPool(remote.PoolOptions{FS: fs, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(pool.Handler())
	wctx, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := remote.RunWorker(wctx, remote.WorkerOptions{
			Coordinator: srv.URL, Name: "fit-worker", Jobs: reg, PollWait: 200 * time.Millisecond,
		})
		if err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	t.Cleanup(func() {
		stop()
		wg.Wait()
		pool.Close()
		srv.Close()
	})
	if err := pool.AwaitWorkers(wctx, 1); err != nil {
		t.Fatal(err)
	}

	e := docExecutor(fs)
	e.Workers = pool.Workers()
	tr := obs.NewTracer()
	view, rep, err := e.ExecuteContext(obs.WithTracer(context.Background(), tr), []lfapi.LF[*corpus.Document]{engagementLF(), keywordLF()})
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := workerAgg.Summary(); !ok || s.Count != len(docs) || s.Mean != 0.5 {
		t.Errorf("worker's summary = %+v ok=%v, want count %d mean 0.5", s, ok, len(docs))
	}
	for i := range docs {
		for j := 0; j < 2; j++ {
			if got, w := view.Matrix.At(i, j), want.At(i, j); got != w {
				t.Errorf("remote vote[%d][%d] = %v, in-process %v", i, j, got, w)
			}
		}
	}
	if p := rep.PerLF[0].CorpusPasses; p != 2 {
		t.Errorf("corpus passes = %d, want 2", p)
	}
	fits := 0
	for _, s := range tr.Snapshot() {
		if s.Name == "lf.fit above_mean_engagement" {
			fits++
		}
	}
	if fits != 1 {
		t.Errorf("%d lf.fit spans in the coordinator's trace, want 1", fits)
	}
}
