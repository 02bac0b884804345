package drybell_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/remote"
	"repro/pkg/drybell"
)

// remoteCluster runs a coordinator-side pool and n worker loops speaking
// real HTTP, carrying the test LF set.
type remoteCluster struct {
	pool *drybell.RemotePool
	srv  *httptest.Server
}

func startRemoteCluster(t *testing.T, fs drybell.FS, ttl time.Duration, hooks []remote.WorkerHooks) *remoteCluster {
	t.Helper()
	reg := drybell.NewRemoteRegistry()
	if err := drybell.RegisterRemoteLFs(reg, testRunners(), decodeDoc); err != nil {
		t.Fatal(err)
	}
	pool, err := drybell.NewRemotePool(drybell.RemotePoolOptions{FS: fs, Slots: 4, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(pool.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i, h := range hooks {
		wg.Add(1)
		go func(i int, h remote.WorkerHooks) {
			defer wg.Done()
			// The internal entry point rather than drybell.RunRemoteWorker,
			// because fault hooks are not part of the public surface.
			err := remote.RunWorker(ctx, remote.WorkerOptions{
				Coordinator: srv.URL,
				Name:        fmt.Sprintf("pipeline-worker-%d", i),
				Jobs:        reg,
				PollWait:    200 * time.Millisecond,
				Hooks:       h,
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i, h)
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		pool.Close()
		srv.Close()
	})
	if err := pool.AwaitWorkers(ctx, len(hooks)); err != nil {
		t.Fatal(err)
	}
	return &remoteCluster{pool: pool, srv: srv}
}

func assertShardsEqual(t *testing.T, got, want [][]byte, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d shards, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: shard %d differs (%d vs %d bytes)", what, i, len(got[i]), len(want[i]))
		}
	}
}

// TestPipelineRemoteWorkersEquivalence is the multi-node acceptance bar's
// clean half: the full pipeline with labeling-function execution routed to
// two worker processes over HTTP persists byte-identical labels and votes
// to the in-process backend.
func TestPipelineRemoteWorkersEquivalence(t *testing.T) {
	docs := makeDocs(240)

	clean := newPipeline(t)
	cleanRes, err := clean.Run(context.Background(), drybell.SliceSource(docs), testRunners())
	if err != nil {
		t.Fatal(err)
	}
	cleanLabels := rawShards(t, clean.FS(), clean.LabelsPath())
	cleanVotes := rawFiles(t, clean.FS(), clean.VotesBase())

	fs := dfs.NewMem()
	c := startRemoteCluster(t, fs, 0, []remote.WorkerHooks{{}, {}})
	p := newPipeline(t,
		drybell.WithFS(fs),
		drybell.WithRemoteWorkers(c.pool),
	)
	res, err := p.Run(context.Background(), drybell.SliceSource(docs), testRunners())
	if err != nil {
		t.Fatal(err)
	}

	matricesEqual(t, cleanRes.Matrix, res.Matrix)
	assertShardsEqual(t, rawShards(t, p.FS(), p.LabelsPath()), cleanLabels, "labels")
	assertShardsEqual(t, rawFiles(t, p.FS(), p.VotesBase()), cleanVotes, "votes")
	for j, want := range cleanRes.LFReport.PerLF {
		got := res.LFReport.PerLF[j]
		if got.Positives != want.Positives || got.Negatives != want.Negatives || got.Abstains != want.Abstains {
			t.Errorf("LF %s vote counts diverge remotely: %+v vs %+v", want.Name, got, want)
		}
	}
}

// TestPipelineRemoteWorkersFaultEquivalence is the other half: the same
// equivalence with the remote fleet actively failing — a worker killed
// dead on its first lease, another dropping heartbeats on its first lease
// until that lease expires and stalling on every lease, plus DFS faults on
// the attempt files behind the gateway. Lease expiry must fold
// every remote failure mode into the coordinator's ordinary retry path,
// and the persisted labels must not move by a byte.
func TestPipelineRemoteWorkersFaultEquivalence(t *testing.T) {
	docs := makeDocs(240)

	clean := newPipeline(t)
	cleanRes, err := clean.Run(context.Background(), drybell.SliceSource(docs), testRunners())
	if err != nil {
		t.Fatal(err)
	}
	cleanLabels := rawShards(t, clean.FS(), clean.LabelsPath())

	fault := dfs.NewFaultFS(dfs.NewMem(), 91)
	// The fused vote job collects output in memory, so the worker I/O the
	// gateway carries is dominated by input-shard reads — fault those (the
	// read happens worker-side, inside the attempt, so each hit costs one
	// retried attempt). The scripted faults guarantee the first three
	// task-input reads fail regardless of seed; the probabilistic layer
	// keeps later attempts under pressure too.
	fault.FailNext(dfs.OpRead, "input/examples", 3)
	fault.FailProbPath(dfs.OpRead, "input/examples", 0.15)
	fault.FailProbPath(dfs.OpWrite, "_attempts/", 0.05)
	fault.FailProbPath(dfs.OpRename, "_attempts/", 0.05)

	var kills, partitions atomic.Int32
	kills.Store(1)
	partitions.Store(1)
	hooks := []remote.WorkerHooks{
		{Kill: func(mapreduce.TaskSpec) bool { return kills.Add(-1) >= 0 }},
		{
			DropHeartbeats: func(mapreduce.TaskSpec) bool { return partitions.Add(-1) >= 0 },
			Stall:          func(mapreduce.TaskSpec) { time.Sleep(150 * time.Millisecond) },
		},
		{}, {},
	}
	c := startRemoteCluster(t, fault, 400*time.Millisecond, hooks)

	p := newPipeline(t,
		drybell.WithFS(fault),
		drybell.WithRemoteWorkers(c.pool),
		drybell.WithRetries(24),
	)
	res, err := p.Run(context.Background(), drybell.SliceSource(docs), testRunners())
	if err != nil {
		t.Fatalf("remote pipeline under faults failed: %v (injected %d)", err, fault.Injected())
	}
	if fault.Injected() == 0 {
		t.Fatal("no DFS faults fired; test is vacuous")
	}

	matricesEqual(t, cleanRes.Matrix, res.Matrix)
	assertShardsEqual(t, rawShards(t, p.FS(), p.LabelsPath()), cleanLabels, "labels under faults")
	for j, want := range cleanRes.LFReport.PerLF {
		got := res.LFReport.PerLF[j]
		if got.Positives != want.Positives || got.Negatives != want.Negatives || got.Abstains != want.Abstains {
			t.Errorf("LF %s vote counts diverge under remote faults: %+v vs %+v", want.Name, got, want)
		}
	}
}

// TestPipelineRemoteResume proves checkpoint/resume crosses the process
// boundary at the SDK level: a resumed pipeline over the same filesystem
// and function set re-executes nothing even when its jobs are routed to
// remote workers.
func TestPipelineRemoteResume(t *testing.T) {
	docs := makeDocs(120)
	fs := dfs.NewMem()
	c := startRemoteCluster(t, fs, 0, []remote.WorkerHooks{{}, {}})

	first := newPipeline(t,
		drybell.WithFS(fs),
		drybell.WithRemoteWorkers(c.pool),
		drybell.WithResume(true),
	)
	firstRes, err := first.Run(context.Background(), drybell.SliceSource(docs), testRunners())
	if err != nil {
		t.Fatal(err)
	}
	if firstRes.LFReport.TasksResumed != 0 {
		t.Fatalf("fresh remote run resumed %d tasks", firstRes.LFReport.TasksResumed)
	}

	second := newPipeline(t,
		drybell.WithFS(fs),
		drybell.WithRemoteWorkers(c.pool),
		drybell.WithResume(true),
	)
	secondRes, err := second.Run(context.Background(), drybell.SliceSource(docs), testRunners())
	if err != nil {
		t.Fatal(err)
	}
	if secondRes.LFReport.TaskAttempts != 0 {
		t.Errorf("resumed remote run launched %d attempts, want 0", secondRes.LFReport.TaskAttempts)
	}
	matricesEqual(t, firstRes.Matrix, secondRes.Matrix)
}
