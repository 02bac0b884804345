package apps

import (
	"context"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/kgraph"
	"repro/internal/nlp"
	lfapi "repro/pkg/drybell/lf"
)

// containsAny is the straightforward strings.Contains loop the
// automaton-backed functions are held to; the references below build on it.
func containsAny(text string, words []string) bool {
	for _, w := range words {
		if strings.Contains(text, w) {
			return true
		}
	}
	return false
}

// referenceKeywordVotes returns, by function name, the strings.Contains
// rendering of every keyword and translation function of the topic and
// product sets.
func referenceKeywordVotes(g kgraph.Client) map[string]func(*corpus.Document) lfapi.Label {
	on := func(hit bool, v lfapi.Label) lfapi.Label {
		if hit {
			return v
		}
		return lfapi.Abstain
	}
	inCategory := append(append([]string{}, kgraph.BikeKeywords...), kgraph.BikeAccessoryKeywords...)
	translations := func(keywords []string) map[string][]string {
		out := map[string][]string{}
		for _, kw := range keywords {
			for _, lang := range kgraph.Languages {
				if form, ok := g.Translate(kw, lang); ok {
					out[lang] = append(out[lang], form)
				}
			}
		}
		return out
	}
	in, out := translations(inCategory), translations(kgraph.OtherAccessoryKeywords)
	return map[string]func(*corpus.Document) lfapi.Label{
		"keyword_celebrity": func(d *corpus.Document) lfapi.Label {
			return on(containsAny(d.Text(), corpus.CelebrityKeywords()), lfapi.Positive)
		},
		"keyword_offtopic_jargon": func(d *corpus.Document) lfapi.Label {
			hits := 0
			for _, kw := range []string{"dividend", "earnings", "api", "encryption", "vaccine", "itinerary"} {
				if strings.Contains(d.Text(), kw) {
					hits++
				}
			}
			return on(hits >= 2, lfapi.Negative)
		},
		"keyword_bike_en": func(d *corpus.Document) lfapi.Label {
			return on(containsAny(d.Text(), kgraph.BikeKeywords), lfapi.Positive)
		},
		"keyword_accessory_en": func(d *corpus.Document) lfapi.Label {
			return on(containsAny(d.Text(), kgraph.BikeAccessoryKeywords), lfapi.Positive)
		},
		"keyword_other_accessory_en": func(d *corpus.Document) lfapi.Label {
			text := d.Text()
			return on(containsAny(text, kgraph.OtherAccessoryKeywords) && !containsAny(text, inCategory), lfapi.Negative)
		},
		"kg_translated_bike": func(d *corpus.Document) lfapi.Label {
			forms, ok := in[d.Language]
			return on(ok && containsAny(d.Text(), forms), lfapi.Positive)
		},
		"kg_translated_other_accessory": func(d *corpus.Document) lfapi.Label {
			forms, ok := out[d.Language]
			inForms, inOK := in[d.Language]
			return on(ok && containsAny(d.Text(), forms) && (!inOK || !containsAny(d.Text(), inForms)), lfapi.Negative)
		},
		"merchant_category_model": func(d *corpus.Document) lfapi.Label {
			forms, ok := in[d.Language]
			return on(ok && containsAny(d.Text(), forms) && containsAny(d.Text(), nlp.TopicVocab[nlp.TopicShopping]), lfapi.Positive)
		},
	}
}

// TestKeywordLFsMatchContains: every keyword and translation function of the
// topic and product sets votes, through the batch column loop and through
// the online per-row path, exactly as its strings.Contains reference does on
// generated corpora — the product one in all ten languages.
func TestKeywordLFsMatchContains(t *testing.T) {
	ctx := context.Background()
	g := kgraph.Builtin()
	ref := referenceKeywordVotes(g)
	topic, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 3000, PositiveRate: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	product, err := corpus.GenerateProduct(corpus.ProductSpec{NumDocs: 4000, PositiveRate: 0.2, Graph: g, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	langs := map[string]bool{}
	for _, d := range product {
		langs[d.Language] = true
	}
	for _, lang := range kgraph.Languages {
		if !langs[lang] {
			t.Fatalf("product corpus has no %q documents", lang)
		}
	}
	for _, set := range []struct {
		name string
		docs []*corpus.Document
		lfs  []DocLF
	}{
		{"topic", topic, TopicLFs(g, 0, 1)},
		{"product", product, ProductLFs(g, 1)},
	} {
		var subset []DocLF
		for _, f := range set.lfs {
			if ref[f.LFMeta().Name] != nil {
				subset = append(subset, f)
			}
		}
		eval, err := lfapi.NewEvaluator(subset, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := len(subset)
		cols := make([]byte, len(set.docs)*n)
		for j, f := range subset {
			if _, err := lfapi.VoteAll(ctx, f, set.docs, cols, n, j); err != nil {
				t.Fatal(err)
			}
		}
		fired := make([]int, n)
		for i, d := range set.docs {
			row, err := eval.VoteRow(ctx, d)
			if err != nil {
				t.Fatal(err)
			}
			for j, f := range subset {
				name := f.LFMeta().Name
				want := ref[name](d)
				if got := lfapi.Label(int8(cols[i*n+j])); got != want {
					t.Fatalf("%s doc %d (%s): VoteAll %s = %d, strings.Contains %d", set.name, i, d.Language, name, got, want)
				}
				if row[j] != want {
					t.Fatalf("%s doc %d (%s): VoteRow %s = %d, strings.Contains %d", set.name, i, d.Language, name, row[j], want)
				}
				if want != lfapi.Abstain {
					fired[j]++
				}
			}
		}
		for j, f := range subset {
			if fired[j] == 0 {
				t.Errorf("%s: %s never votes on the corpus; the comparison is vacuous", set.name, f.LFMeta().Name)
			}
		}
		if want := map[string]int{"topic": 2, "product": 6}[set.name]; n != want {
			t.Errorf("%s: %d keyword functions compared, want %d", set.name, n, want)
		}
	}
}
