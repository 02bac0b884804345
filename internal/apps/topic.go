// Package apps defines the labeling functions of the paper's three case
// studies (§3): topic classification (10 LFs), product classification
// (8 LFs), and real-time events (140 LFs). Each set mixes the Figure 2
// source categories and the servable/non-servable split that drives the
// Table 3 ablation.
//
// The sets are authored against the public template library
// (repro/pkg/drybell/lf) and run unchanged on both engines: the batch
// MapReduce executor and the online serving path.
package apps

import (
	"strings"

	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/kgraph"
	"repro/internal/nlp"
	"repro/pkg/drybell/lf"
)

// DocLF abbreviates the document labeling-function type.
type DocLF = lf.LF[*corpus.Document]

// cachedClient wraps a knowledge-graph client in the standard LRU unless it
// already is one — the shared memoization layer in front of the (simulated)
// remote Knowledge Graph service.
func cachedClient(graph kgraph.Client) kgraph.Client {
	if graph == nil {
		graph = kgraph.Builtin()
	}
	if _, ok := graph.(*kgraph.Cache); ok {
		return graph
	}
	if c, err := kgraph.NewCache(graph, lf.DefaultGraphCacheSize); err == nil {
		return c
	}
	return graph
}

// TopicLFs returns the ten labeling functions of the topic-classification
// case study (§3.1): URL-based heuristics, keyword rules, NER-tagger-based
// functions (including the paper's "no person → not celebrity" example),
// topic-model-based negative heuristics, a knowledge-graph occupation
// lookup, and a crawler aggregate-statistics heuristic. The graph is any
// kgraph.Client; it is queried through an LRU cache either way, and nil
// uses the builtin graph.
func TopicLFs(graph kgraph.Client, nerMissRate float64, seed int64) []DocLF {
	client := cachedClient(graph)
	newServer := func() *nlp.Server { return nlp.NewServer(nerMissRate, seed) }
	celebKeywords := corpus.CelebrityKeywords()
	entDomains := toSet(corpus.EntertainmentDomains())
	boringDomains := toSet(corpus.BoringDomains())

	return []DocLF{
		// --- Servable: content and source heuristics (pattern-based). ---
		&lf.Func[*corpus.Document]{
			Meta: lf.Meta{Name: "keyword_celebrity", Category: lf.ContentHeuristic, Servable: true},
			Fn: func(d *corpus.Document) lf.Label {
				text := d.Text()
				for _, kw := range celebKeywords {
					if strings.Contains(text, kw) {
						return lf.Positive
					}
				}
				return lf.Abstain
			},
		},
		&lf.Func[*corpus.Document]{
			Meta: lf.Meta{Name: "keyword_offtopic_jargon", Category: lf.ContentHeuristic, Servable: true},
			Fn: func(d *corpus.Document) lf.Label {
				text := d.Text()
				hits := 0
				for _, kw := range []string{"dividend", "earnings", "api", "encryption", "vaccine", "itinerary"} {
					if strings.Contains(text, kw) {
						hits++
					}
				}
				if hits >= 2 {
					return lf.Negative
				}
				return lf.Abstain
			},
		},
		&lf.Func[*corpus.Document]{
			Meta: lf.Meta{Name: "url_entertainment", Category: lf.SourceHeuristic, Servable: true},
			Fn: func(d *corpus.Document) lf.Label {
				if entDomains[features.URLDomain(d.URL)] {
					return lf.Positive
				}
				return lf.Abstain
			},
		},
		&lf.Func[*corpus.Document]{
			Meta: lf.Meta{Name: "url_low_signal", Category: lf.SourceHeuristic, Servable: true},
			Fn: func(d *corpus.Document) lf.Label {
				if boringDomains[features.URLDomain(d.URL)] {
					return lf.Negative
				}
				return lf.Abstain
			},
		},

		// --- Non-servable: NER-tagger-based (NLP model server). ---
		&lf.NLPFunc[*corpus.Document]{
			// The paper's §5.1 example verbatim: no person ⇒ not celebrity.
			Meta:      lf.Meta{Name: "ner_no_person", Category: lf.ModelBased, Servable: false},
			NewServer: newServer,
			GetText:   func(d *corpus.Document) string { return d.Text() },
			GetValue: func(_ *corpus.Document, res *nlp.Result) lf.Label {
				if len(res.People()) == 0 {
					return lf.Negative
				}
				return lf.Abstain
			},
		},
		&lf.NLPFunc[*corpus.Document]{
			Meta:      lf.Meta{Name: "ner_known_celebrity", Category: lf.ModelBased, Servable: false},
			NewServer: newServer,
			GetText:   func(d *corpus.Document) string { return d.Text() },
			GetValue: func(_ *corpus.Document, res *nlp.Result) lf.Label {
				for _, p := range res.People() {
					if kgraph.IsCelebrity(client, p.Text) {
						return lf.Positive
					}
				}
				return lf.Abstain
			},
		},

		// --- Non-servable: topic-model-based (coarse semantic categories). ---
		&lf.NLPFunc[*corpus.Document]{
			Meta:      lf.Meta{Name: "topicmodel_offtopic", Category: lf.ModelBased, Servable: false},
			NewServer: newServer,
			GetText:   func(d *corpus.Document) string { return d.Text() },
			GetValue: func(_ *corpus.Document, res *nlp.Result) lf.Label {
				// Coarse category clearly outside entertainment ⇒ negative.
				switch res.TopTopic() {
				case nlp.TopicEntertainment, "":
					return lf.Abstain
				default:
					return lf.Negative
				}
			},
		},
		&lf.NLPFunc[*corpus.Document]{
			Meta:      lf.Meta{Name: "topicmodel_no_entertainment_cues", Category: lf.ModelBased, Servable: false},
			NewServer: newServer,
			GetText:   func(d *corpus.Document) string { return d.Text() },
			GetValue: func(_ *corpus.Document, res *nlp.Result) lf.Label {
				// No entertainment mass at all in the coarse categorization
				// ⇒ not celebrity content. High-coverage precise negative.
				for _, ts := range res.Topics {
					if ts.Topic == nlp.TopicEntertainment {
						return lf.Abstain
					}
				}
				return lf.Negative
			},
		},

		// --- Non-servable: knowledge-graph-based (NER + occupation lookup). ---
		&lf.NLPFunc[*corpus.Document]{
			Meta:      lf.Meta{Name: "kg_non_celebrity_person", Category: lf.GraphBased, Servable: false},
			NewServer: newServer,
			GetText:   func(d *corpus.Document) string { return d.Text() },
			GetValue: func(_ *corpus.Document, res *nlp.Result) lf.Label {
				people := res.People()
				if len(people) == 0 {
					return lf.Abstain
				}
				// Every recognized person known NOT to be a celebrity ⇒ negative.
				for _, p := range people {
					if client.Occupation(p.Text) != "civilian" {
						return lf.Abstain
					}
				}
				return lf.Negative
			},
		},

		// --- Non-servable: crawler aggregate statistics, as the model-based
		// template's two threshold slots. High positive threshold: at a ~1%
		// positive rate only a strong engagement signal is positive evidence.
		lf.Threshold(
			lf.Meta{Name: "crawler_engagement", Category: lf.SourceHeuristic, Servable: false},
			func(d *corpus.Document) float64 { return d.Crawler.EngagementScore },
			0.88, 0.18,
		),
	}
}

// TopicSet is TopicLFs as a named, validated set (cmd/lfrun's "topic").
func TopicSet(graph kgraph.Client, nerMissRate float64, seed int64) (*lf.Set[*corpus.Document], error) {
	return lf.NewSet("topic", TopicLFs(graph, nerMissRate, seed)...)
}

func toSet(xs []string) map[string]bool {
	out := make(map[string]bool, len(xs))
	for _, x := range xs {
		out[x] = true
	}
	return out
}
