package serve_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/nlp"
	"repro/internal/serving"
	"repro/pkg/drybell/serve"
)

// flakyAnnotator delegates to a real NLP server but can be switched into a
// hard-failure mode, standing in for an annotator dependency going down.
type flakyAnnotator struct {
	inner     nlp.Annotator
	fail      atomic.Bool
	failAfter atomic.Int64 // when positive, every call after this many fails
	calls     atomic.Int64
}

func (f *flakyAnnotator) Annotate(text string) (*nlp.Result, error) {
	n := f.calls.Add(1)
	if after := f.failAfter.Load(); f.fail.Load() || (after > 0 && n > after) {
		return nil, errors.New("annotator down")
	}
	return f.inner.Annotate(text)
}

func newFlakyAnnotator(t *testing.T) *flakyAnnotator {
	t.Helper()
	srv := nlp.NewServer(0, 1)
	if err := srv.Launch(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return &flakyAnnotator{inner: srv}
}

func newFlakyDocServer(t *testing.T, ann nlp.Annotator, threshold int, cooldown time.Duration) *serve.Server[*corpus.Document] {
	t.Helper()
	runners := apps.TopicLFs(nil, 0, 1)
	reg, _ := serving.OpenFSRegistry(dfs.NewMem(), "serving")
	if _, err := reg.Stage(docArtifact()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote("topic-classifier", 1); err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config[*corpus.Document]{
		Registry:   reg,
		Model:      "topic-classifier",
		Decode:     corpus.UnmarshalDocument,
		Featurize:  serve.DocumentFeaturizer,
		LFs:        runners,
		LabelModel: uniformModel(len(runners)),
		CacheSize:  64,
		Annotator:  ann,

		BreakerThreshold: threshold,
		BreakerCooldown:  cooldown,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// docN yields distinct documents so each request misses the annotation
// cache and genuinely exercises the annotator.
func docN(i int) *corpus.Document {
	d := celebrityDoc()
	d.ID = fmt.Sprintf("doc-%d", i)
	d.Body = fmt.Sprintf("%s take %d", d.Body, i)
	return d
}

func nonAbstains(votes []serve.VoteRecord) int {
	n := 0
	for _, v := range votes {
		if v.Vote != 0 {
			n++
		}
	}
	return n
}

// TestLabelDegradesWhenAnnotatorFails: an unhealthy annotator must not
// fail /v1/label. The first failure trips the breaker (threshold 1 here),
// the answer comes back Degraded with a majority-vote posterior, and while
// the breaker is open the annotator is not consulted at all.
func TestLabelDegradesWhenAnnotatorFails(t *testing.T) {
	ann := newFlakyAnnotator(t)
	s := newFlakyDocServer(t, ann, 1, time.Hour)
	ctx := context.Background()

	healthy, err := s.Label(ctx, docN(0))
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Degraded {
		t.Fatal("healthy request marked degraded")
	}
	if got := s.Metrics().AnnotatorBreaker; got != "closed" {
		t.Fatalf("breaker = %q before any failure", got)
	}

	ann.fail.Store(true)
	deg, err := s.Label(ctx, docN(1))
	if err != nil {
		t.Fatalf("label with failing annotator: %v (want a degraded answer, not an error)", err)
	}
	if !deg.Degraded {
		t.Fatal("answer under annotator failure not marked degraded")
	}
	if deg.Posterior == nil {
		t.Fatal("degraded answer lost its posterior fallback")
	}
	if got := s.Metrics().AnnotatorBreaker; got != "open" {
		t.Errorf("breaker = %q after a tripping failure, want open", got)
	}

	// Breaker open: NLP columns abstain without touching the annotator.
	before := ann.calls.Load()
	deg2, err := s.Label(ctx, docN(0))
	if err != nil {
		t.Fatal(err)
	}
	if !deg2.Degraded {
		t.Fatal("answer with an open breaker not marked degraded")
	}
	if ann.calls.Load() != before {
		t.Errorf("annotator consulted %d times while the breaker was open", ann.calls.Load()-before)
	}
	// Same document as the healthy run: force-abstained NLP columns must
	// show up as strictly fewer non-abstain votes.
	if nonAbstains(deg2.Votes) >= nonAbstains(healthy.Votes) {
		t.Errorf("degraded non-abstains = %d, healthy = %d; NLP columns did not abstain",
			nonAbstains(deg2.Votes), nonAbstains(healthy.Votes))
	}

	snap := s.Metrics()
	if snap.Degraded < 2 {
		t.Errorf("degraded counter = %d, want >= 2", snap.Degraded)
	}
	if snap.Label.Errors != 0 {
		t.Errorf("label errors = %d; degradation must not count as failure", snap.Label.Errors)
	}
}

// TestLabelBatchDegradesAsAUnit: the vectorized path applies the same
// per-column breaker discipline — an open breaker degrades every record in
// the batch instead of failing the request.
func TestLabelBatchDegradesAsAUnit(t *testing.T) {
	ann := newFlakyAnnotator(t)
	s := newFlakyDocServer(t, ann, 1, time.Hour)
	ctx := context.Background()

	ann.fail.Store(true)
	if _, err := s.Label(ctx, docN(0)); err != nil { // trip the breaker
		t.Fatal(err)
	}

	docs := []*corpus.Document{docN(1), docN(2), docN(3)}
	res, err := s.LabelBatch(ctx, docs)
	if err != nil {
		t.Fatalf("batch with open breaker: %v", err)
	}
	for i, r := range res {
		if !r.Degraded {
			t.Errorf("record %d not marked degraded", i)
		}
		if r.Posterior == nil {
			t.Errorf("record %d lost its posterior fallback", i)
		}
	}
}

// TestLabelBatchDropsAPartlyVotedColumn: an NLP column whose annotator
// fails after the column's first votes were written abstains in full, so the
// batch answers exactly as if the breaker had been open from the start.
func TestLabelBatchDropsAPartlyVotedColumn(t *testing.T) {
	ctx := context.Background()
	docs := make([]*corpus.Document, 300) // more than one VoteAll chunk of 256
	for i := range docs {
		// No person in the text, so the first NLP column (ner_no_person)
		// votes on every record.
		docs[i] = docN(i)
		docs[i].Title, docs[i].Body = fmt.Sprintf("quarterly earnings %d", i), "dividend yield inflation"
	}
	failing := newFlakyAnnotator(t)
	failing.failAfter.Store(260) // the first NLP column fails in its second chunk
	got, err := newFlakyDocServer(t, failing, 1, time.Hour).LabelBatch(ctx, docs)
	if err != nil {
		t.Fatal(err)
	}

	down := newFlakyAnnotator(t)
	s := newFlakyDocServer(t, down, 1, time.Hour)
	down.fail.Store(true)
	if _, err := s.Label(ctx, docN(-1)); err != nil { // trip the breaker
		t.Fatal(err)
	}
	want, err := s.LabelBatch(ctx, docs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !got[i].Degraded || *got[i].Posterior != *want[i].Posterior {
			t.Fatalf("record %d: degraded %v posterior %v, want degraded posterior %v", i, got[i].Degraded, *got[i].Posterior, *want[i].Posterior)
		}
		for j := range want[i].Votes {
			if got[i].Votes[j] != want[i].Votes[j] {
				t.Fatalf("record %d: vote %+v, want %+v", i, got[i].Votes[j], want[i].Votes[j])
			}
		}
	}
}

// TestLabelBreakerProbeRecovers: after the cooldown the breaker lets one
// live request probe the annotator; a healthy answer closes it and
// subsequent responses drop the Degraded marker.
func TestLabelBreakerProbeRecovers(t *testing.T) {
	ann := newFlakyAnnotator(t)
	s := newFlakyDocServer(t, ann, 1, 20*time.Millisecond)
	ctx := context.Background()

	ann.fail.Store(true)
	if _, err := s.Label(ctx, docN(0)); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().AnnotatorBreaker; got != "open" {
		t.Fatalf("breaker = %q after failure", got)
	}

	ann.fail.Store(false)
	time.Sleep(30 * time.Millisecond)
	res, err := s.Label(ctx, docN(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Error("probe request after recovery still degraded")
	}
	if got := s.Metrics().AnnotatorBreaker; got != "closed" {
		t.Errorf("breaker = %q after a successful probe, want closed", got)
	}
}
