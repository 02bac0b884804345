package lf_test

import (
	"context"
	"testing"

	"repro/internal/labelmodel"
	"repro/internal/nlp"
	"repro/pkg/drybell/lf"
)

func TestSetValidationAndLookup(t *testing.T) {
	a := fixedLF("a", lf.Positive, true)
	b := fixedLF("b", lf.Negative, false)
	if _, err := lf.NewSet("", a); err == nil {
		t.Error("unnamed set accepted")
	}
	if _, err := lf.NewSet("dup", a, a); err == nil {
		t.Error("duplicate names accepted")
	}
	s, err := lf.NewSet("demo", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Name() != "demo" {
		t.Fatalf("set = %s/%d", s.Name(), s.Len())
	}
	if got, ok := s.Get("b"); !ok || got.LFMeta().Name != "b" {
		t.Error("Get(b) failed")
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("Get(missing) succeeded")
	}
	if names := s.Names(); names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
	if idx := s.ServableIndices(); len(idx) != 1 || idx[0] != 0 {
		t.Errorf("servable = %v", idx)
	}
	if c := s.Census(); c[lf.ContentHeuristic] != 2 {
		t.Errorf("census = %v", c)
	}
}

// TestEvaluatorSharesOneAnnotator: a set with two NLP functions must end up
// consulting one shared cached annotator, with cache hits on repeats.
func TestEvaluatorSharesOneAnnotator(t *testing.T) {
	launches := 0
	mkNLP := func(name string) lf.LF[string] {
		return &lf.NLPFunc[string]{
			Meta: lf.Meta{Name: name, Category: lf.ModelBased},
			NewServer: func() *nlp.Server {
				launches++
				return nlp.NewServer(0, 1)
			},
			GetText: func(s string) string { return s },
			GetValue: func(_ string, res *nlp.Result) lf.Label {
				if len(res.People()) == 0 {
					return lf.Negative
				}
				return lf.Abstain
			},
		}
	}
	eval, err := lf.NewEvaluator([]lf.LF[string]{mkNLP("n1"), mkNLP("n2")}, nil, 32)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := eval.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	defer eval.Teardown(ctx)
	if launches != 1 {
		t.Fatalf("launched %d servers, want 1 shared", launches)
	}
	cache := eval.NLPCache()
	if cache == nil {
		t.Fatal("no shared annotation cache")
	}
	// Same text through both functions and again: the annotation is cached.
	for i := 0; i < 3; i++ {
		if _, err := eval.VoteRow(ctx, "nothing notable here"); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Hits() == 0 {
		t.Error("no annotation cache hits across repeated evaluation")
	}
}

// TestEvaluatorTeardownStopsOnlyItsOwnServer: the model server an evaluator
// launched for its set stops with the evaluator; an annotator the caller
// supplied — as an argument or injected into the functions beforehand — is
// consulted, never replaced by a new launch, and never stopped.
func TestEvaluatorTeardownStopsOnlyItsOwnServer(t *testing.T) {
	ctx := context.Background()
	var launched []*nlp.Server
	newSet := func() []lf.LF[string] {
		f := &lf.NLPFunc[string]{
			Meta: lf.Meta{Name: "n", Category: lf.ModelBased},
			NewServer: func() *nlp.Server {
				launched = append(launched, nlp.NewServer(0, 1))
				return launched[len(launched)-1]
			},
			GetText:  func(s string) string { return s },
			GetValue: func(string, *nlp.Result) lf.Label { return lf.Abstain },
		}
		return []lf.LF[string]{lf.Invert[string](f)}
	}

	eval, err := lf.NewEvaluator(newSet(), nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := eval.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := eval.VoteRow(ctx, "some text"); err != nil {
		t.Fatal(err)
	}
	if len(launched) != 1 || !launched[0].Launched() {
		t.Fatalf("evaluator launched %d servers, want 1 running", len(launched))
	}
	if err := eval.Teardown(ctx); err != nil {
		t.Fatal(err)
	}
	if launched[0].Launched() {
		t.Error("the evaluator's own model server is still running after Teardown")
	}

	theirs := nlp.NewServer(0, 1)
	if err := theirs.Launch(); err != nil {
		t.Fatal(err)
	}
	defer theirs.Stop()
	injected := newSet()
	injected[0].(lf.Annotatable).SetAnnotator(theirs)
	for name, build := range map[string]func() (*lf.Evaluator[string], error){
		"argument": func() (*lf.Evaluator[string], error) { return lf.NewEvaluator(newSet(), theirs, 8) },
		"injected": func() (*lf.Evaluator[string], error) { return lf.NewEvaluator(injected, nil, 8) },
	} {
		eval, err := build()
		if err != nil {
			t.Fatal(err)
		}
		before := theirs.Calls()
		if _, err := eval.VoteRow(ctx, "text for "+name); err != nil {
			t.Fatal(err)
		}
		if err := eval.Teardown(ctx); err != nil {
			t.Fatal(err)
		}
		if theirs.Calls() != before+1 || len(launched) != 1 || !theirs.Launched() {
			t.Errorf("%s: caller's server took %d calls (want 1), %d servers launched in all (want 1), still running %v",
				name, theirs.Calls()-before, len(launched), theirs.Launched())
		}
	}
}

// TestEvaluatorRowMatchesMatrix: per-record rows (VoteRow) and the columns
// of a vote matrix written by the column loop (VoteAll) must agree — the
// online and batch views of the same set.
func TestEvaluatorRowMatchesMatrix(t *testing.T) {
	even := lf.New(lf.Meta{Name: "even"}, func(x int) lf.Label {
		if x%2 == 0 {
			return lf.Positive
		}
		return lf.Abstain
	})
	neg := lf.Threshold(lf.Meta{Name: "neg"}, func(x int) float64 { return float64(x) }, lf.NeverPositive, 3)
	eval, err := lf.NewEvaluator([]lf.LF[int]{even, neg}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	xs := []int{0, 1, 2, 3, 4, 5}
	n := eval.Len()
	buf := make([]byte, len(xs)*n)
	for j, f := range eval.LFs() {
		if _, err := lf.VoteAll(ctx, f, xs, buf, n, j); err != nil {
			t.Fatal(err)
		}
	}
	mx := labelmodel.NewMatrix(len(xs), n)
	for i := range xs {
		if j := labelmodel.DecodeVotes(mx.Row(i), buf[i*n:(i+1)*n]); j >= 0 {
			t.Fatalf("row %d: column %d holds an undecodable vote byte", i, j)
		}
	}
	for i, x := range xs {
		row, err := eval.VoteRow(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range row {
			if mx.At(i, j) != v {
				t.Errorf("(%d,%d): matrix %v != row %v", i, j, mx.At(i, j), v)
			}
		}
	}
	if eval.Len() != 2 || eval.Names()[1] != "neg" {
		t.Errorf("metadata wrong: %v", eval.Names())
	}
}

func TestEvaluatorValidatesNames(t *testing.T) {
	dup := fixedLF("same", lf.Positive, true)
	if _, err := lf.NewEvaluator([]lf.LF[int]{dup, dup}, nil, 0); err == nil {
		t.Error("duplicate names accepted by evaluator")
	}
}

// TestEvaluatorWithCombinatorOnlySet: a set whose only members are
// combinators over pure heuristics needs no annotator — construction must
// succeed, and a combinator placed before an NLP function must not stop
// the annotator scan.
func TestEvaluatorWithCombinatorOnlySet(t *testing.T) {
	pure := fixedLF("kw", lf.Positive, true)
	eval, err := lf.NewEvaluator([]lf.LF[int]{lf.Invert(pure)}, nil, 0)
	if err != nil {
		t.Fatalf("combinator-only set rejected: %v", err)
	}
	if eval.NLPCache() != nil {
		t.Error("annotation cache created for a set with no NLP functions")
	}
	row, err := eval.VoteRow(context.Background(), 0)
	if err != nil || row[0] != lf.Negative {
		t.Fatalf("vote = %v, %v", row, err)
	}

	// Combinator first, NLPFunc second: the scan must reach the NLPFunc.
	launched := false
	nlpLF := &lf.NLPFunc[int]{
		Meta: lf.Meta{Name: "nlp"},
		NewServer: func() *nlp.Server {
			launched = true
			return nlp.NewServer(0, 1)
		},
		GetText:  func(int) string { return "plain text" },
		GetValue: func(int, *nlp.Result) lf.Label { return lf.Abstain },
	}
	eval2, err := lf.NewEvaluator([]lf.LF[int]{lf.Invert(pure), nlpLF}, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !launched || eval2.NLPCache() == nil {
		t.Error("annotator scan stopped at the combinator")
	}
}
