package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/features"
	"repro/internal/serving"
	"repro/pkg/drybell/serve"
)

// vec is the test record type: an already-featurized sparse vector, so
// scores are exact and independent of hashing.
type vec = *features.SparseVector

// identityFeaturizer serves pre-featurized records as-is.
func identityFeaturizer(a *serving.Artifact) (func(vec) *features.SparseVector, error) {
	return func(x vec) *features.SparseVector { return x }, nil
}

func decodeVec(data []byte) (vec, error) {
	var v struct {
		Indices []uint32  `json:"indices"`
		Values  []float64 `json:"values"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, err
	}
	return &features.SparseVector{Indices: v.Indices, Values: v.Values}, nil
}

// stageVersions stages artifacts whose single weight at index 1 is each of
// the given values, in order, as versions 1..n of model "m".
func stageVersions(t *testing.T, reg *serving.FSRegistry, weights ...string) {
	t.Helper()
	for _, w := range weights {
		a := &serving.Artifact{
			Name: "m", Kind: "logreg", Threshold: 0.5, FeatureDim: 8,
			Signals: []string{"text"},
			Payload: []byte(`{"indices":[1],"values":[` + w + `]}`),
		}
		if _, err := reg.Stage(a); err != nil {
			t.Fatal(err)
		}
	}
}

func newVecServer(t *testing.T, cfg serve.Config[vec]) (*serve.Server[vec], *serving.FSRegistry) {
	t.Helper()
	if cfg.Registry == nil {
		reg, err := serving.OpenFSRegistry(dfs.NewMem(), "serving")
		if err != nil {
			t.Fatal(err)
		}
		stageVersions(t, reg, "4", "-4")
		if err := reg.Promote("m", 1); err != nil {
			t.Fatal(err)
		}
		cfg.Registry = reg
	}
	cfg.Model = "m"
	cfg.Decode = decodeVec
	cfg.Featurize = identityFeaturizer
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, cfg.Registry
}

// posX scores sigmoid(4) ≈ 0.982 on v1 (weight +4) and sigmoid(-4) ≈ 0.018
// on v2 (weight −4).
var posX = &features.SparseVector{Indices: []uint32{1}, Values: []float64{1}}

func TestPredictScoresLiveVersion(t *testing.T) {
	s, _ := newVecServer(t, serve.Config[vec]{BatchWait: time.Millisecond})
	res, err := s.Predict(context.Background(), posX)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || !res.Positive || res.Score < 0.9 || res.BatchSize < 1 {
		t.Fatalf("v1 result = %+v", res)
	}
	if res.Model != "m" {
		t.Errorf("model = %q", res.Model)
	}
	if err := s.Promote(2); err != nil {
		t.Fatal(err)
	}
	res, err = s.Predict(context.Background(), posX)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || res.Positive || res.Score > 0.1 {
		t.Fatalf("v2 result = %+v", res)
	}
}

func TestMicroBatchingUnderLoad(t *testing.T) {
	s, _ := newVecServer(t, serve.Config[vec]{
		MaxBatch: 16, BatchWait: 30 * time.Millisecond, Workers: 2,
	})
	const n = 64
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := s.Predict(context.Background(), posX); err != nil {
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Batches.Records != n {
		t.Errorf("batched records = %d, want %d", m.Batches.Records, n)
	}
	if m.Batches.Dispatched >= n {
		t.Errorf("dispatched %d batches for %d requests — no batching happened", m.Batches.Dispatched, n)
	}
	if m.Batches.MeanSize <= 1 {
		t.Errorf("mean batch size = %v, want > 1", m.Batches.MeanSize)
	}
	if len(m.Batches.Histogram) == 0 {
		t.Error("empty batch histogram")
	}
	if m.Predict.Requests != n || m.Predict.Errors != 0 {
		t.Errorf("predict stats = %+v", m.Predict)
	}
}

// TestHotSwapZeroFailedRequests is the promotion-under-load guarantee:
// concurrent traffic across many promotions sees zero failed requests, and
// every response is internally consistent with the version that scored it.
func TestHotSwapZeroFailedRequests(t *testing.T) {
	s, _ := newVecServer(t, serve.Config[vec]{
		MaxBatch: 8, BatchWait: 200 * time.Microsecond, Workers: 4,
	})
	const workers = 8
	var (
		wg       sync.WaitGroup
		failed   atomic.Int64
		served   atomic.Int64
		badMix   atomic.Int64
		stopLoad = make(chan struct{})
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				res, err := s.Predict(context.Background(), posX)
				if err != nil {
					failed.Add(1)
					continue
				}
				served.Add(1)
				// Version 1 carries weight +4 (positive), version 2 weight
				// −4 (negative): a response mixing version and score would
				// mean a request straddled a swap.
				switch res.Version {
				case 1:
					if !res.Positive || res.Score < 0.9 {
						badMix.Add(1)
					}
				case 2:
					if res.Positive || res.Score > 0.1 {
						badMix.Add(1)
					}
				default:
					badMix.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		want := 2 - i%2 // alternate 2,1,2,1,...
		if err := s.Promote(want); err != nil {
			t.Fatalf("promotion %d: %v", i, err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stopLoad)
	wg.Wait()
	if failed.Load() != 0 {
		t.Errorf("%d requests failed across promotions", failed.Load())
	}
	if badMix.Load() != 0 {
		t.Errorf("%d responses mixed versions mid-swap", badMix.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no requests served during the promotion storm")
	}
	if m := s.Metrics(); m.Swaps < 50 {
		t.Errorf("swaps = %d, want ≥ 50", m.Swaps)
	}
}

func TestCloseDrains(t *testing.T) {
	s, _ := newVecServer(t, serve.Config[vec]{BatchWait: time.Millisecond})
	if _, err := s.Predict(context.Background(), posX); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Predict(context.Background(), posX); !errors.Is(err, serve.ErrDraining) {
		t.Errorf("predict after close = %v, want ErrDraining", err)
	}
	s.Close() // idempotent
}

func TestRestartRecoversPromotedVersion(t *testing.T) {
	fs, err := dfs.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := serving.OpenFSRegistry(fs, "serving")
	stageVersions(t, reg, "4", "-4")
	if err := reg.Promote("m", 2); err != nil {
		t.Fatal(err)
	}
	s1, _ := newVecServer(t, serve.Config[vec]{Registry: reg})
	if s1.Version() != 2 {
		t.Fatalf("first daemon serves v%d, want 2", s1.Version())
	}
	s1.Close()

	// "Restart": a fresh registry and server over the same filesystem.
	reg2, _ := serving.OpenFSRegistry(fs, "serving")
	s2, _ := newVecServer(t, serve.Config[vec]{Registry: reg2})
	if s2.Version() != 2 {
		t.Fatalf("restarted daemon serves v%d, want 2", s2.Version())
	}
	res, err := s2.Predict(context.Background(), posX)
	if err != nil || res.Positive {
		t.Fatalf("restarted predict = %+v, %v", res, err)
	}
}

func TestNewRequiresLiveVersion(t *testing.T) {
	reg, _ := serving.OpenFSRegistry(dfs.NewMem(), "serving")
	stageVersions(t, reg, "4") // staged, never promoted
	_, err := serve.New(serve.Config[vec]{
		Registry: reg, Model: "m", Featurize: identityFeaturizer,
	})
	if err == nil {
		t.Fatal("server started without a live version")
	}
}

func TestReloadPicksUpExternalPromotion(t *testing.T) {
	fs := dfs.NewMem()
	reg, _ := serving.OpenFSRegistry(fs, "serving")
	stageVersions(t, reg, "4", "-4")
	if err := reg.Promote("m", 1); err != nil {
		t.Fatal(err)
	}
	s, _ := newVecServer(t, serve.Config[vec]{Registry: reg})

	// Another process (a second registry over the same FS) promotes v2.
	other, _ := serving.OpenFSRegistry(fs, "serving")
	if err := other.Promote("m", 2); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 1 {
		t.Fatalf("version changed without reload: %d", s.Version())
	}
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 2 {
		t.Errorf("after reload version = %d, want 2", s.Version())
	}
}

// TestPromoteRejectsNonServable proves a bad candidate cannot take down the
// request path: promotion fails, the old version keeps serving, and the
// registry's live marker is restored to match.
func TestPromoteRejectsNonServable(t *testing.T) {
	s, reg := newVecServer(t, serve.Config[vec]{})
	bad := &serving.Artifact{
		Name: "m", Kind: "logreg", Threshold: 0.5, FeatureDim: 8,
		Signals: []string{"crawler"},
		Payload: []byte(`{"indices":[1],"values":[1]}`),
	}
	staged, err := reg.Stage(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Promote(staged.Version); err == nil {
		t.Fatal("non-servable artifact promoted")
	}
	if s.Version() != 1 {
		t.Errorf("request path moved to v%d", s.Version())
	}
	live, err := reg.Live("m")
	if err != nil || live.Version != 1 {
		t.Errorf("registry live = %v, %v; want v1 restored", live, err)
	}
	if res, err := s.Predict(context.Background(), posX); err != nil || !res.Positive {
		t.Errorf("serving degraded after failed promote: %+v, %v", res, err)
	}
}

func TestRollback(t *testing.T) {
	s, _ := newVecServer(t, serve.Config[vec]{})
	if err := s.Promote(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 1 {
		t.Errorf("after rollback version = %d", s.Version())
	}
}

func TestLabelWithoutRunners(t *testing.T) {
	s, _ := newVecServer(t, serve.Config[vec]{})
	if _, err := s.Label(context.Background(), posX); !errors.Is(err, serve.ErrNoLabeler) {
		t.Errorf("label = %v, want ErrNoLabeler", err)
	}
}
