package lf

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/labelmodel"
	"repro/internal/nlp"
	lfapi "repro/pkg/drybell/lf"
)

// echoAnnotator answers every text with a fresh result whose one entity is
// the text itself, so a vote can tell whose annotation it was given.
type echoAnnotator struct{ calls atomic.Int64 }

func (a *echoAnnotator) Annotate(text string) (*nlp.Result, error) {
	a.calls.Add(1)
	return &nlp.Result{Entities: []nlp.Entity{{Text: text}}}, nil
}

// TestColumnReadsEachFunctionsOwnText: NLP functions that read different
// texts of one document — the title, and Text() — each get the annotation of
// their own text on their own row, whichever function asked first and
// whatever rows repeat a text; the function reading the row's text again
// reuses the row.
func TestColumnReadsEachFunctionsOwnText(t *testing.T) {
	docs := testDocs()
	docs = append(docs, docs[0], docs[2], &corpus.Document{ID: "7", Title: docs[1].Title, Body: "other body"})
	title := func(d *corpus.Document) string { return d.Title }
	text := func(d *corpus.Document) string { return d.Text() }
	ann := &echoAnnotator{}
	reads := func(name string, get func(*corpus.Document) string) lfapi.LF[*corpus.Document] {
		f := &lfapi.NLPFunc[*corpus.Document]{
			Meta:    lfapi.Meta{Name: name},
			GetText: get,
			GetValue: func(d *corpus.Document, res *nlp.Result) labelmodel.Label {
				if len(res.Entities) == 1 && res.Entities[0].Text == get(d) {
					return labelmodel.Positive
				}
				return labelmodel.Negative
			},
		}
		f.SetAnnotator(ann)
		return f
	}
	inverted := lfapi.Invert(reads("title_inside", title))
	lfs := []lfapi.LF[*corpus.Document]{reads("text", text), reads("title", title), reads("text_again", text), inverted}
	const shards = 2
	fs := dfs.NewMem()
	stageDocs(t, fs, docs, shards)
	view, _, err := docExecutor(fs).ExecuteContext(context.Background(), lfs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range docs {
		for j, want := range []labelmodel.Label{labelmodel.Positive, labelmodel.Positive, labelmodel.Positive, labelmodel.Negative} {
			if got := view.Matrix.At(i, j); got != want {
				t.Errorf("doc %d, %s: vote %v, want %v (another row's or another text's annotation)", i, lfs[j].LFMeta().Name, got, want)
			}
		}
	}
	// Text() once per row, reused by text_again; each title read annotated.
	if got, want := ann.calls.Load(), int64(3*len(docs)); got != want {
		t.Errorf("%d annotations, want %d", got, want)
	}
}

// TestColumnDuplicateTextsMatchVoteRow: a batch in which texts repeat on
// other rows of the same task votes exactly as Evaluator.VoteRow does row by
// row, for the topic and product sets, whether each task launches the set's
// own nlp.Server or the caller injects one nlp.Cache. With its own servers a
// task annotates every row, repeats included.
func TestColumnDuplicateTextsMatchVoteRow(t *testing.T) {
	const shards = 3
	gen := func(spec func(int, int64) ([]*corpus.Document, error)) []*corpus.Document {
		docs, err := spec(90, 5)
		if err != nil {
			t.Fatal(err)
		}
		// Row 90+k repeats row k's text in row k's shard.
		for k, d := range docs[:60] {
			dup := *d
			dup.ID = fmt.Sprintf("dup-%d", k)
			docs = append(docs, &dup)
		}
		return docs
	}
	for _, tc := range []struct {
		name   string
		docs   []*corpus.Document
		newSet func() []lfapi.LF[*corpus.Document]
	}{
		{"topic", gen(func(n int, seed int64) ([]*corpus.Document, error) {
			return corpus.GenerateTopic(corpus.TopicSpec{NumDocs: n, PositiveRate: 0.2, Seed: seed})
		}), func() []lfapi.LF[*corpus.Document] { return apps.TopicLFs(nil, 0.3, 7) }},
		{"product", gen(func(n int, seed int64) ([]*corpus.Document, error) {
			return corpus.GenerateProduct(corpus.DefaultProductSpec(n, seed))
		}), func() []lfapi.LF[*corpus.Document] { return apps.ProductLFs(nil, 7) }},
	} {
		eval, err := lfapi.NewEvaluator(tc.newSet(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, cached := range []bool{false, true} {
			lfs := tc.newSet()
			var log serverLog
			log.watch(lfs...)
			if cached {
				srv := nlp.NewServer(0.3, 7)
				if tc.name == "product" {
					srv = nlp.NewServer(0, 7)
				}
				if err := srv.Launch(); err != nil {
					t.Fatal(err)
				}
				defer srv.Stop()
				cache, err := nlp.NewCache(srv, 16)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range lfs {
					if a, ok := f.(lfapi.Annotatable); ok {
						a.SetAnnotator(cache)
					}
				}
			}
			fs := dfs.NewMem()
			stageDocs(t, fs, tc.docs, shards)
			view, _, err := docExecutor(fs).ExecuteContext(context.Background(), lfs)
			if err != nil {
				t.Fatalf("%s, cache %v: %v", tc.name, cached, err)
			}
			for i, d := range tc.docs {
				want, err := eval.VoteRow(context.Background(), d)
				if err != nil {
					t.Fatal(err)
				}
				for j, v := range want {
					if got := view.Matrix.At(i, j); got != v {
						t.Fatalf("%s, cache %v: doc %d, %s: vote %v, VoteRow %v", tc.name, cached, i, lfs[j].LFMeta().Name, got, v)
					}
				}
			}
			if _, _, calls := log.tally(); !cached && calls != int64(len(tc.docs)) {
				t.Errorf("%s: %d annotations over %d rows, want one per row", tc.name, calls, len(tc.docs))
			}
		}
		if err := eval.Teardown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzKeywordUnion holds the shared automaton to each rule's own: three
// rules over one word list — its head, its tail and all of it, overlapping
// as the product set's rules do — compile into one union, and on any text
// each rule's mask read off the union equals its own Matcher's and the
// strings.Contains reference. A list that does not compile is skipped.
func FuzzKeywordUnion(f *testing.F) {
	for _, seed := range []struct {
		text, packed string
		head, tail   uint8
	}{
		{"she sells sea shells", "he,she,his,hers,sea shell,s", 3, 2},
		{"a bike helmet and a bike pump", "bike,bicycle,helmet,pump,bike pump,tent", 2, 4},
		{"\xff\xfe\x00caf\xc3\xa9", "\xfe\x00,\xc3,é,caf\xc3", 1, 1},
		{"aaaa", "a,aa,aaa,aaaaa", 4, 4},
	} {
		f.Add(seed.text, seed.packed, seed.head, seed.tail)
	}
	f.Fuzz(func(t *testing.T, text, packed string, head, tail uint8) {
		words := strings.Split(packed, ",")
		h, tl := int(head)%(len(words)+1), int(tail)%(len(words)+1)
		groups := [][]string{words[:h], words[len(words)-tl:], words}
		got := make([]uint64, len(groups))
		var lfs []lfapi.LF[string]
		for g, ws := range groups {
			k, err := lfapi.Keywords[string]{
				Meta:    lfapi.Meta{Name: fmt.Sprint(g)},
				GetText: func(s string) string { return s },
				Words:   ws,
				Vote:    func(_ string, hits uint64) labelmodel.Label { got[g] = hits; return labelmodel.Abstain },
			}.Compile()
			if err != nil {
				return // an empty, duplicate or 65th word: Compile's refusals are FuzzKeywords'
			}
			lfs = append(lfs, k)
		}
		union, rules := keywordUnion(lfs)
		if union == nil {
			t.Fatalf("words %q: no union over three compiled rules", words)
		}
		col := &taskColumn[string]{union: union, rows: make([]taskRow, 1)}
		for g, r := range rules {
			col.row = 0 // every rule reads row 0: the first scans it, the others reuse the scan
			if _, err := r.voter(col).Vote(context.Background(), text); err != nil {
				t.Fatal(err)
			}
			m, err := lfapi.NewMatcher(groups[g])
			if err != nil {
				t.Fatal(err)
			}
			var ref uint64
			for i, w := range groups[g] {
				if strings.Contains(text, w) {
					ref |= 1 << i
				}
			}
			if own := m.Hits(text); got[g] != own || got[g] != ref {
				t.Fatalf("text %q, rule %d %q: union mask %b, own matcher %b, strings.Contains %b", text, g, groups[g], got[g], own, ref)
			}
		}
	})
}
