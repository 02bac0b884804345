package lf_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/kgraph"
	"repro/internal/labelmodel"
	"repro/internal/nlp"
	"repro/pkg/drybell/lf"
)

// tableLF is a labeling function defined outside the package: it votes
// through Vote alone, so VoteAll must take its generic path.
type tableLF struct {
	name  string
	votes []lf.Label // indexed by example
}

func (f *tableLF) LFMeta() lf.Meta { return lf.Meta{Name: f.name} }

func (f *tableLF) Vote(_ context.Context, x int) (lf.Label, error) {
	return f.votes[x], nil
}

// stubAnnotator annotates every text as empty, or refuses every text with err.
type stubAnnotator struct{ err error }

func (a stubAnnotator) Annotate(string) (*nlp.Result, error) {
	if a.err != nil {
		return nil, a.err
	}
	return &nlp.Result{}, nil
}

// scoreOf maps an example to a score, NaN and ±Inf included.
func scoreOf(seed int64) func(int) float64 {
	return func(x int) float64 {
		switch h := (int64(x)*2654435761 + seed) % 23; h {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		default:
			return float64(h)/4 - 3
		}
	}
}

// genLF draws one labeling function over examples 0..m-1: a ModelFunc or
// Threshold with random (possibly one-sided) slots, another template, a
// combinator over generated members, or a function from outside the package.
func genLF(rng *rand.Rand, name string, m, depth int) lf.LF[int] {
	meta := lf.Meta{Name: name, Category: lf.ModelBased}
	vote := func(x int) lf.Label { return lf.Label((x*7+len(name))%3 - 1) }
	kind := rng.Intn(9)
	if depth > 1 && kind >= 6 {
		kind = rng.Intn(6)
	}
	switch kind {
	case 0, 1:
		pos := []float64{lf.NeverPositive, 0, 1.5, rng.Float64()*6 - 3}[rng.Intn(4)]
		neg := []float64{lf.NeverNegative, pos, pos - 1, pos - rng.Float64()*4}[rng.Intn(4)]
		if kind == 0 {
			return &lf.ModelFunc[int]{Meta: meta, Score: scoreOf(rng.Int63n(1000)), PositiveAbove: pos, NegativeBelow: neg}
		}
		return lf.Threshold(meta, scoreOf(rng.Int63n(1000)), pos, neg)
	case 2:
		return lf.New(meta, vote)
	case 3:
		return &lf.GraphFunc[int]{Meta: meta, Query: func(_ kgraph.Client, x int) lf.Label { return vote(x + 1) }}
	case 4:
		agg := &lf.AggregateFunc[int]{
			Meta:    meta,
			Extract: func(x int) float64 { return float64(x % 5) },
			VoteWith: func(_ int, v float64, s lf.Summary) lf.Label {
				if v > s.Mean {
					return lf.Positive
				}
				return lf.Abstain
			},
		}
		agg.Freeze(lf.Summary{Count: m, Mean: 2})
		return agg
	case 5:
		votes := make([]lf.Label, m)
		for i := range votes {
			votes[i] = lf.Label(rng.Intn(3) - 1)
		}
		return &tableLF{name: name, votes: votes}
	case 6:
		return lf.Invert(genLF(rng, name+"_inner", m, depth+1))
	default:
		members := []lf.LF[int]{genLF(rng, name+"_a", m, depth+1), genLF(rng, name+"_b", m, depth+1)}
		combine := lf.FirstOf[int]
		if kind == 8 {
			combine = lf.All[int]
		}
		f, err := combine(meta, members...)
		if err != nil {
			panic(err)
		}
		return f
	}
}

// TestVoteAllMatchesVoteOnGeneratedSets is the column loop's contract on
// generated function sets: every column VoteAll writes into a shared
// row-major buffer holds exactly per-example Vote → EncodeVotes, and its counts
// are that column's histogram — for batches shorter and longer than one
// context stride.
func TestVoteAllMatchesVoteOnGeneratedSets(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(36))
	for set := 0; set < 40; set++ {
		m := 1 + rng.Intn(700)
		xs := make([]int, m)
		for i := range xs {
			xs[i] = i
		}
		lfs := make([]lf.LF[int], 1+rng.Intn(8))
		for j := range lfs {
			lfs[j] = genLF(rng, fmt.Sprintf("set%d_lf%d", set, j), m, 0)
		}
		n := len(lfs)
		buf := make([]byte, m*n)
		for j, f := range lfs {
			got, err := lf.VoteAll(ctx, f, xs, buf, n, j)
			if err != nil {
				t.Fatalf("set %d, %s: %v", set, f.LFMeta().Name, err)
			}
			var want lf.VoteCounts
			for i, x := range xs {
				v, err := f.Vote(ctx, x)
				if err != nil {
					t.Fatalf("set %d, %s: Vote(%d): %v", set, f.LFMeta().Name, x, err)
				}
				var b [1]byte
				if err := labelmodel.EncodeVotes(b[:], []labelmodel.Label{v}); err != nil {
					t.Fatal(err)
				}
				if buf[i*n+j] != b[0] {
					t.Fatalf("set %d, %s, example %d: column byte %#x, Vote → EncodeVotes %#x", set, f.LFMeta().Name, i, buf[i*n+j], b[0])
				}
				switch v {
				case lf.Positive:
					want.Positives++
				case lf.Negative:
					want.Negatives++
				default:
					want.Abstains++
				}
			}
			if got != want {
				t.Errorf("set %d, %s: counts %+v, want %+v", set, f.LFMeta().Name, got, want)
			}
		}
	}
}

// TestVoteAllRejectsBadFunctions: a misconfigured template or an illegal
// vote fails the column with an error naming the function, through the
// template loops and the generic path alike; an empty batch votes nothing
// and succeeds.
func TestVoteAllRejectsBadFunctions(t *testing.T) {
	ctx := context.Background()
	xs := []int{0, 1, 2, 3}
	seven := func(x int) lf.Label {
		if x == 2 {
			return lf.Label(7)
		}
		return lf.Positive
	}
	bad := map[string]lf.LF[int]{
		"nil_score":   &lf.ModelFunc[int]{Meta: lf.Meta{Name: "nil_score"}},
		"overlap":     lf.Threshold(lf.Meta{Name: "overlap"}, scoreOf(1), -1, 1),
		"nil_fn":      &lf.Func[int]{Meta: lf.Meta{Name: "nil_fn"}},
		"func_7":      lf.New(lf.Meta{Name: "func_7"}, seven),
		"table_7":     &tableLF{name: "table_7", votes: []lf.Label{0, 1, 7, -1}},
		"graph_7":     &lf.GraphFunc[int]{Meta: lf.Meta{Name: "graph_7"}, Query: func(_ kgraph.Client, x int) lf.Label { return seven(x) }},
		"nlp_no_text": &lf.NLPFunc[int]{Meta: lf.Meta{Name: "nlp_no_text"}, GetValue: func(int, *nlp.Result) lf.Label { return lf.Abstain }},
		"nlp_unwired": &lf.NLPFunc[int]{Meta: lf.Meta{Name: "nlp_unwired"}, GetText: strconv.Itoa, GetValue: func(int, *nlp.Result) lf.Label { return lf.Abstain }},
	}
	kw7, err := lf.Keywords[int]{Meta: lf.Meta{Name: "kw_7"}, GetText: strconv.Itoa, Words: []string{"2"},
		Vote: func(x int, _ uint64) lf.Label { return seven(x) }}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	bad["kw_7"] = kw7
	for name, ann := range map[string]nlp.Annotator{"nlp_7": stubAnnotator{}, "nlp_fails": stubAnnotator{errors.New("model server down")}} {
		f := &lf.NLPFunc[int]{Meta: lf.Meta{Name: name}, GetText: strconv.Itoa, GetValue: func(x int, _ *nlp.Result) lf.Label { return seven(x) }}
		f.SetAnnotator(ann)
		bad[name] = f
	}
	for name, f := range bad {
		buf := make([]byte, len(xs)*2)
		if _, err := lf.VoteAll(ctx, f, xs, buf, 2, 1); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: VoteAll error %v, want one naming the function", name, err)
		}
		if c, err := lf.VoteAll(ctx, f, nil, nil, 2, 1); err != nil || c != (lf.VoteCounts{}) {
			t.Errorf("%s: empty batch: counts %+v, error %v; want none and nil", name, c, err)
		}
	}
	if _, err := lf.VoteAll(ctx, lf.LF[int](lf.New(lf.Meta{Name: "short"}, seven)), xs, make([]byte, 7), 2, 1); err == nil || !strings.Contains(err.Error(), "short") {
		t.Errorf("VoteAll into a buffer too short for its column: error %v", err)
	}
}
