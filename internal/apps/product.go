package apps

import (
	"strings"
	"sync"

	"repro/internal/corpus"
	"repro/internal/kgraph"
	"repro/internal/nlp"
	"repro/pkg/drybell/lf"
)

// ProductLFs returns the eight labeling functions of the product-
// classification case study (§3.2): keyword rules for the expanded category
// (products plus accessories and parts), negative keyword rules for
// out-of-category accessories, Knowledge Graph translation lookups covering
// ten languages (the graph-based template, queried through its LRU cache),
// the coarse topic-model negative heuristic, and a merchant
// aggregate-statistics heuristic.
func ProductLFs(graph kgraph.Client, seed int64) []DocLF {
	client := cachedClient(graph)
	newServer := func() *nlp.Server { return nlp.NewServer(0, seed) }

	inCategory := append(append([]string{}, kgraph.BikeKeywords...), kgraph.BikeAccessoryKeywords...)

	containsAny := func(text string, words []string) bool {
		for _, w := range words {
			if strings.Contains(text, w) {
				return true
			}
		}
		return false
	}
	// The translated keyword tables are expanded from the graph client once,
	// on first vote, exactly as the paper's LFs queried the graph during
	// development; per-vote work is then lock-free map reads shared by every
	// graph-backed function in the set. Expansion enumerates the ten serving
	// locales (kgraph.Languages), the product task's language universe.
	tables := &translationTables{keywords: inCategory}

	return []DocLF{
		// --- Servable: English keyword rules. ---
		&lf.Func[*corpus.Document]{
			Meta: lf.Meta{Name: "keyword_bike_en", Category: lf.ContentHeuristic, Servable: true},
			Fn: func(d *corpus.Document) lf.Label {
				if containsAny(d.Text(), kgraph.BikeKeywords) {
					return lf.Positive
				}
				return lf.Abstain
			},
		},
		&lf.Func[*corpus.Document]{
			Meta: lf.Meta{Name: "keyword_accessory_en", Category: lf.ContentHeuristic, Servable: true},
			Fn: func(d *corpus.Document) lf.Label {
				// The expanded category: accessories and parts now count.
				if containsAny(d.Text(), kgraph.BikeAccessoryKeywords) {
					return lf.Positive
				}
				return lf.Abstain
			},
		},
		&lf.Func[*corpus.Document]{
			Meta: lf.Meta{Name: "keyword_other_accessory_en", Category: lf.ContentHeuristic, Servable: true},
			Fn: func(d *corpus.Document) lf.Label {
				text := d.Text()
				if containsAny(text, kgraph.OtherAccessoryKeywords) &&
					!containsAny(text, kgraph.BikeKeywords) &&
					!containsAny(text, kgraph.BikeAccessoryKeywords) {
					return lf.Negative
				}
				return lf.Abstain
			},
		},

		// --- Non-servable: Knowledge Graph translations (ten languages),
		// the graph-based template over the shared cached client. ---
		&lf.GraphFunc[*corpus.Document]{
			Meta:   lf.Meta{Name: "kg_translated_bike", Category: lf.GraphBased, Servable: false},
			Client: client,
			Query: func(g kgraph.Client, d *corpus.Document) lf.Label {
				tables.expand(g)
				if forms, ok := tables.in[d.Language]; ok && containsAny(d.Text(), forms) {
					return lf.Positive
				}
				return lf.Abstain
			},
		},
		&lf.GraphFunc[*corpus.Document]{
			Meta:   lf.Meta{Name: "kg_translated_other_accessory", Category: lf.GraphBased, Servable: false},
			Client: client,
			Query: func(g kgraph.Client, d *corpus.Document) lf.Label {
				tables.expand(g)
				text := d.Text()
				if forms, ok := tables.out[d.Language]; ok && containsAny(text, forms) {
					if in, ok := tables.in[d.Language]; !ok || !containsAny(text, in) {
						return lf.Negative
					}
				}
				return lf.Abstain
			},
		},

		// --- Non-servable: topic-model negative heuristic. ---
		&lf.NLPFunc[*corpus.Document]{
			Meta:      lf.Meta{Name: "topicmodel_unrelated", Category: lf.ModelBased, Servable: false},
			NewServer: newServer,
			GetText:   func(d *corpus.Document) string { return d.Text() },
			GetValue: func(_ *corpus.Document, res *nlp.Result) lf.Label {
				switch res.TopTopic() {
				case nlp.TopicTravel, nlp.TopicFood, nlp.TopicFinance, nlp.TopicTechnology:
					return lf.Negative
				default:
					return lf.Abstain
				}
			},
		},

		// --- Non-servable: merchant aggregate statistics. Negative-only
		// threshold slot: under ~1.5% positives, low engagement is reliable
		// negative evidence but high engagement is not precise enough to
		// vote positive. ---
		lf.Threshold(
			lf.Meta{Name: "crawler_listing_quality", Category: lf.SourceHeuristic, Servable: false},
			func(d *corpus.Document) float64 { return d.Crawler.EngagementScore },
			lf.NeverPositive, 0.12,
		),

		// --- Non-servable: internal merchant-category model (simulated as a
		// high-precision combination of graph keyword + shopping context),
		// thresholded through the model-based template's positive slot. ---
		&lf.ModelFunc[*corpus.Document]{
			Meta: lf.Meta{Name: "merchant_category_model", Category: lf.ModelBased, Servable: false},
			Score: func(d *corpus.Document) float64 {
				tables.expand(client)
				text := d.Text()
				if forms, ok := tables.in[d.Language]; ok && containsAny(text, forms) &&
					containsAny(text, nlp.TopicVocab[nlp.TopicShopping]) {
					return 1
				}
				return 0
			},
			PositiveAbove: 0.5,
			NegativeBelow: lf.NeverNegative,
		},
	}
}

// translationTables holds the language → localized-surface-form tables the
// product set's graph-backed functions share, expanded from the knowledge
// graph exactly once.
type translationTables struct {
	keywords []string // in-category keyword set
	once     sync.Once
	in, out  map[string][]string
}

// expand builds both tables through the (cached) client on first use.
func (t *translationTables) expand(g kgraph.Client) {
	t.once.Do(func() {
		t.in = expandTranslations(g, t.keywords)
		t.out = expandTranslations(g, kgraph.OtherAccessoryKeywords)
	})
}

// expandTranslations asks the graph for every keyword's surface form in
// each serving locale.
func expandTranslations(g kgraph.Client, keywords []string) map[string][]string {
	out := make(map[string][]string)
	for _, kw := range keywords {
		for _, lang := range kgraph.Languages {
			if form, ok := g.Translate(kw, lang); ok {
				out[lang] = append(out[lang], form)
			}
		}
	}
	return out
}

// ProductSet is ProductLFs as a named, validated set (cmd/lfrun's "product").
func ProductSet(graph kgraph.Client, seed int64) (*lf.Set[*corpus.Document], error) {
	return lf.NewSet("product", ProductLFs(graph, seed)...)
}
