package lf_test

import (
	"context"
	"strings"
	"testing"

	"repro/pkg/drybell/lf"
)

// fixedLF votes a fixed label for every example.
func fixedLF(name string, v lf.Label, servable bool) lf.LF[int] {
	return lf.New(lf.Meta{Name: name, Category: lf.ContentHeuristic, Servable: servable}, func(int) lf.Label { return v })
}

func vote(t *testing.T, f lf.LF[int]) lf.Label {
	t.Helper()
	v, err := f.Vote(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestInvert(t *testing.T) {
	inv := lf.Invert(fixedLF("pos", lf.Positive, true))
	if got := vote(t, inv); got != lf.Negative {
		t.Errorf("invert(+) = %v", got)
	}
	if got := vote(t, lf.Invert(fixedLF("neg", lf.Negative, true))); got != lf.Positive {
		t.Errorf("invert(-) = %v", got)
	}
	if got := vote(t, lf.Invert(fixedLF("abs", lf.Abstain, true))); got != lf.Abstain {
		t.Errorf("invert(0) = %v", got)
	}
	m := inv.LFMeta()
	if m.Name != "not_pos" || !m.Servable || m.Category != lf.ContentHeuristic {
		t.Errorf("derived meta = %+v", m)
	}
}

func TestFirstOf(t *testing.T) {
	f, err := lf.FirstOf(lf.Meta{Name: "fallback"},
		fixedLF("a", lf.Abstain, true),
		fixedLF("b", lf.Negative, true),
		fixedLF("c", lf.Positive, true),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := vote(t, f); got != lf.Negative {
		t.Errorf("first non-abstain should win: %v", got)
	}
	allAbstain, err := lf.FirstOf(lf.Meta{Name: "aa"}, fixedLF("a", lf.Abstain, true))
	if err != nil {
		t.Fatal(err)
	}
	if got := vote(t, allAbstain); got != lf.Abstain {
		t.Errorf("all-abstain FirstOf = %v", got)
	}
	if _, err := lf.FirstOf[int](lf.Meta{Name: "empty"}); err == nil {
		t.Error("empty ensemble accepted")
	}
}

func TestAll(t *testing.T) {
	agree, err := lf.All(lf.Meta{Name: "u"},
		fixedLF("a", lf.Positive, true),
		fixedLF("b", lf.Abstain, true),
		fixedLF("c", lf.Positive, true),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := vote(t, agree); got != lf.Positive {
		t.Errorf("unanimous non-abstainers should vote: %v", got)
	}
	conflict, err := lf.All(lf.Meta{Name: "v"},
		fixedLF("a", lf.Positive, true),
		fixedLF("b", lf.Negative, true),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := vote(t, conflict); got != lf.Abstain {
		t.Errorf("disagreement should abstain: %v", got)
	}
	silent, err := lf.All(lf.Meta{Name: "w"}, fixedLF("a", lf.Abstain, true))
	if err != nil {
		t.Fatal(err)
	}
	if got := vote(t, silent); got != lf.Abstain {
		t.Errorf("full abstention should abstain: %v", got)
	}
}

func TestEnsembleMetaDerivation(t *testing.T) {
	f, err := lf.FirstOf(lf.Meta{},
		fixedLF("precise", lf.Positive, true),
		fixedLF("broad", lf.Positive, false),
	)
	if err != nil {
		t.Fatal(err)
	}
	m := f.LFMeta()
	if !strings.Contains(m.Name, "precise") || !strings.Contains(m.Name, "broad") {
		t.Errorf("derived name = %q", m.Name)
	}
	if m.Servable {
		t.Error("ensemble with a non-servable member claims servable")
	}
	if m.Category != lf.ContentHeuristic {
		t.Errorf("derived category = %q", m.Category)
	}
}

// TestCombinatorBatchEquivalence: VoteAll over a combined function must agree
// with its scalar votes.
func TestCombinatorBatchEquivalence(t *testing.T) {
	even := lf.New(lf.Meta{Name: "even"}, func(x int) lf.Label {
		if x%2 == 0 {
			return lf.Positive
		}
		return lf.Abstain
	})
	big := lf.Threshold(lf.Meta{Name: "big"}, func(x int) float64 { return float64(x) }, 5, 1)
	f, err := lf.All(lf.Meta{Name: "even_and_big"}, even, big)
	if err != nil {
		t.Fatal(err)
	}
	xs := []int{0, 1, 2, 5, 6, 7, 8, 11}
	batch, _, err := voteColumn(context.Background(), f, xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		s, err := f.Vote(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		if s != batch[i] {
			t.Errorf("x=%d: scalar %v != batch %v", x, s, batch[i])
		}
	}
}
