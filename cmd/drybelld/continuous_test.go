package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serving"
	"repro/pkg/drybell"
)

// TestContinuousRoundPromotes drives one full continuous-training round
// in-process: base train, a -mode append style delta, then a single watch
// round that must delta-execute, warm-start retrain, and promote a new
// version into the registry.
func TestContinuousRoundPromotes(t *testing.T) {
	ctx := context.Background()
	fsys := drybell.NewMemFS()
	observer := drybell.NewObserver()
	reg, err := serving.OpenFSRegistry(fsys, "serving")
	if err != nil {
		t.Fatal(err)
	}
	const (
		task  = "topic"
		model = "topic-classifier"
		n     = 600
		seed  = int64(1)
		steps = 60
	)
	runners, bigrams, err := taskRunners(task, 256, seed)
	if err != nil {
		t.Fatal(err)
	}
	base, err := train(ctx, fsys, reg, observer, task, model, runners, bigrams, n, seed, steps, 1, false, true, nil)
	if err != nil {
		t.Fatalf("base train: %v", err)
	}

	// Stage a ~10% append exactly the way `drybelld -mode append` does.
	if err := runAppend(ctx, fsys, observer, task, model, n, seed, steps, 1, 60); err != nil {
		t.Fatalf("append: %v", err)
	}

	inc := incrementalFlags{continuous: true, watch: 10 * time.Millisecond, rounds: 1}
	if err := runContinuous(ctx, fsys, reg, observer, task, model, runners, bigrams, n, seed, steps, 1, false, nil, inc); err != nil {
		t.Fatalf("continuous round: %v", err)
	}

	live, err := reg.Live(model)
	if err != nil {
		t.Fatal(err)
	}
	if live.Version <= base {
		t.Fatalf("live version %d did not advance past base %d", live.Version, base)
	}
	// The loop's freshness metrics made it onto the shared registry.
	for _, series := range []string{"continuous_rounds_total", "continuous_promotions_total"} {
		if !strings.Contains(metricsText(t, observer), series) {
			t.Errorf("metrics exposition missing %s", series)
		}
	}
}

// stageOnLedgerRead counts reads of the corpus ledger and stages a delta
// with stage right after the first one returns, so whoever read it holds a
// ledger that is already one generation behind.
type stageOnLedgerRead struct {
	drybell.FS
	once  sync.Once
	stage func() error
	err   error
	reads atomic.Int64
}

func (f *stageOnLedgerRead) ReadFile(name string) ([]byte, error) {
	data, err := f.FS.ReadFile(name)
	if strings.HasSuffix(name, "/input/_corpus.json") {
		f.once.Do(func() { f.err = f.stage() })
		f.reads.Add(1)
	}
	return data, err
}

// TestContinuousCountsLateDeltas: a delta staged between the loop's ledger
// read and its round's is executed by that round, so the loop must not poll
// it as pending again. One round over both deltas promotes one version; a
// second round with no new generation would promote a duplicate.
func TestContinuousCountsLateDeltas(t *testing.T) {
	fsys := drybell.NewMemFS()
	observer := drybell.NewObserver()
	reg, err := serving.OpenFSRegistry(fsys, "serving")
	if err != nil {
		t.Fatal(err)
	}
	const (
		task  = "topic"
		model = "topic-classifier"
		n     = 600
		seed  = int64(1)
		steps = 60
	)
	runners, bigrams, err := taskRunners(task, 256, seed)
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	base, err := train(bg, fsys, reg, observer, task, model, runners, bigrams, n, seed, steps, 1, false, true, nil)
	if err != nil {
		t.Fatalf("base train: %v", err)
	}
	if err := runAppend(bg, fsys, observer, task, model, n, seed, steps, 1, 30); err != nil {
		t.Fatalf("append: %v", err)
	}
	hooked := &stageOnLedgerRead{FS: fsys, stage: func() error {
		return runAppend(bg, fsys, observer, task, model, n, seed, steps, 1, 30)
	}}

	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		inc := incrementalFlags{continuous: true, watch: 10 * time.Millisecond}
		done <- runContinuous(ctx, hooked, reg, observer, task, model, runners, bigrams, n, seed, steps, 1, false, nil, inc)
	}()
	// Wait for the first promotion, then for three more ledger reads: the
	// loop has polled again since, and would have started a second round.
	seen := int64(-1)
	for seen < 0 || hooked.reads.Load() < seen+3 {
		if live, err := reg.Live(model); seen < 0 && err == nil && live.Version > base {
			seen = hooked.reads.Load()
		}
		select {
		case err := <-done:
			t.Fatalf("loop returned early: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("continuous loop: %v", err)
	}
	if hooked.err != nil {
		t.Fatalf("staging the late delta: %v", hooked.err)
	}
	live, err := reg.Live(model)
	if err != nil {
		t.Fatal(err)
	}
	if live.Version != base+1 {
		t.Errorf("live version %d after one round over base %d: the loop promoted %d versions, want 1", live.Version, base, live.Version-base)
	}
}

func metricsText(t *testing.T, observer *drybell.Observer) string {
	t.Helper()
	var sb strings.Builder
	if err := drybell.WriteMetrics(&sb, observer); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestPromoteVersionHTTP covers the remote-promotion path: the loop POSTs
// /v1/promote to a serving daemon and treats any non-200 as a failed round.
func TestPromoteVersionHTTP(t *testing.T) {
	var gotPath, gotBody string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path
		b, _ := io.ReadAll(r.Body)
		gotBody = string(b)
	}))
	defer srv.Close()
	if err := promoteVersion(context.Background(), nil, "m", srv.URL, 7); err != nil {
		t.Fatal(err)
	}
	if gotPath != "/v1/promote" {
		t.Errorf("POSTed to %q, want /v1/promote", gotPath)
	}
	if gotBody != `{"version":7}` {
		t.Errorf("body = %q", gotBody)
	}

	fail := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no such version", http.StatusNotFound)
	}))
	defer fail.Close()
	err := promoteVersion(context.Background(), nil, "m", fail.URL, 7)
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("want HTTP 404 error, got %v", err)
	}
}
