package serving

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/model"
)

func trainedLogReg(t *testing.T) *model.LogReg {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	m, err := model.NewLogReg(64, model.DefaultFTRL())
	if err != nil {
		t.Fatal(err)
	}
	var xs []*features.SparseVector
	var ys []float64
	for i := 0; i < 500; i++ {
		if rng.Float64() < 0.5 {
			xs = append(xs, &features.SparseVector{Indices: []uint32{1}, Values: []float64{1}})
			ys = append(ys, 0.9)
		} else {
			xs = append(xs, &features.SparseVector{Indices: []uint32{2}, Values: []float64{1}})
			ys = append(ys, 0.1)
		}
	}
	if err := m.Train(xs, ys, model.TrainConfig{Iterations: 5000, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExportServeRoundTrip(t *testing.T) {
	m := trainedLogReg(t)
	art, err := ExportLogReg("clf", m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(art)
	if err != nil {
		t.Fatal(err)
	}
	posX := &features.SparseVector{Indices: []uint32{1}, Values: []float64{1}}
	negX := &features.SparseVector{Indices: []uint32{2}, Values: []float64{1}}
	if got, want := srv.Score(posX), m.Predict(posX); absf(got-want) > 1e-12 {
		t.Errorf("served score %v != training score %v", got, want)
	}
	if srv.Score(posX) < art.Threshold || srv.Score(negX) >= art.Threshold {
		t.Error("classification wrong after export")
	}
	if srv.Artifact().Name != "clf" {
		t.Error("artifact metadata lost")
	}
}

func TestNewServerRejectsBadArtifacts(t *testing.T) {
	if _, err := NewServer(&Artifact{Kind: "dnn"}); err == nil {
		t.Error("unservable kind accepted")
	}
	if _, err := NewServer(&Artifact{Kind: "logreg", Payload: []byte("{bad")}); err == nil {
		t.Error("corrupt payload accepted")
	}
	if _, err := NewServer(&Artifact{
		Kind: "logreg", FeatureDim: 2,
		Payload: []byte(`{"indices":[5],"values":[1]}`),
	}); err == nil {
		t.Error("out-of-dim index accepted")
	}
	if _, err := NewServer(&Artifact{
		Kind: "logreg", FeatureDim: 8,
		Payload: []byte(`{"indices":[1,2],"values":[1]}`),
	}); err == nil {
		t.Error("mismatched payload accepted")
	}
}

func TestValidateServable(t *testing.T) {
	ok := &Artifact{Name: "m", Signals: []string{"text", "url", "language"}}
	if err := ValidateServable(ok); err != nil {
		t.Errorf("servable signals rejected: %v", err)
	}
	event := &Artifact{Name: "m", Signals: []string{"event"}}
	if err := ValidateServable(event); err != nil {
		t.Errorf("event signals rejected: %v", err)
	}
	for _, bad := range []string{"crawler", "ner", "topicmodel", "kgraph"} {
		a := &Artifact{Name: "m", Signals: []string{"text", bad}}
		if err := ValidateServable(a); err == nil {
			t.Errorf("non-servable signal %q accepted", bad)
		}
	}
	if err := ValidateServable(&Artifact{Name: "m"}); err == nil {
		t.Error("artifact with no declared signals accepted")
	}
}

func TestServableSignalsSorted(t *testing.T) {
	got := ServableSignals()
	if len(got) != 4 {
		t.Fatalf("servable signals = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Errorf("unsorted: %v", got)
		}
	}
}

func TestScoreBatchMatchesScore(t *testing.T) {
	m := trainedLogReg(t)
	art, err := ExportLogReg("clf", m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(art)
	if err != nil {
		t.Fatal(err)
	}
	xs := []*features.SparseVector{
		{Indices: []uint32{1}, Values: []float64{1}},
		{Indices: []uint32{2}, Values: []float64{1}},
		{Indices: []uint32{1, 2}, Values: []float64{0.5, 0.5}},
		{},
	}
	batch := srv.ScoreBatchInto(xs, make([]float64, len(xs)))
	if len(batch) != len(xs) {
		t.Fatalf("batch scored %d of %d", len(batch), len(xs))
	}
	for i, x := range xs {
		if want := srv.Score(x); absf(batch[i]-want) > 1e-15 {
			t.Errorf("batch[%d] = %v, Score = %v", i, batch[i], want)
		}
	}
}

func TestValidateLatency(t *testing.T) {
	m := trainedLogReg(t)
	art, _ := ExportLogReg("clf", m, 0.5)
	probes := []*features.SparseVector{
		{Indices: []uint32{1}, Values: []float64{1}},
		{Indices: []uint32{2, 3}, Values: []float64{1, 1}},
	}
	if err := ValidateLatency(art, probes, time.Second); err != nil {
		t.Errorf("generous budget failed: %v", err)
	}
	if err := ValidateLatency(art, probes, time.Nanosecond); err == nil {
		t.Error("impossible budget passed")
	}
	if err := ValidateLatency(art, nil, time.Second); err == nil {
		t.Error("no probes accepted")
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
