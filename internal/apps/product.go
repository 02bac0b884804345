package apps

import (
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

	// The translated keyword tables are expanded from the graph client once,
	// on first vote, exactly as the paper's LFs queried the graph during
	// development; per-vote work is then one lock-free map read and one
	// automaton scan. Expansion enumerates the ten serving locales
	// (kgraph.Languages), the product task's language universe.
	tables := &translationTables{keywords: inCategory}
	// keyword_other_accessory_en's words: the out-of-category ones first, then
	// the in-category ones that veto them.
	otherOrIn := append(append([]string{}, kgraph.OtherAccessoryKeywords...), inCategory...)
	otherMask := uint64(1)<<len(kgraph.OtherAccessoryKeywords) - 1

	return []DocLF{
		// --- Servable: English keyword rules. ---
		keywords(lf.Meta{Name: "keyword_bike_en", Category: lf.ContentHeuristic, Servable: true},
			kgraph.BikeKeywords, onAny(lf.Positive)),
		// The expanded category: accessories and parts now count.
		keywords(lf.Meta{Name: "keyword_accessory_en", Category: lf.ContentHeuristic, Servable: true},
			kgraph.BikeAccessoryKeywords, onAny(lf.Positive)),
		keywords(lf.Meta{Name: "keyword_other_accessory_en", Category: lf.ContentHeuristic, Servable: true},
			otherOrIn, func(_ *corpus.Document, hits uint64) lf.Label {
				if hits&otherMask != 0 && hits&^otherMask == 0 {
					return lf.Negative
				}
				return lf.Abstain
			}),

		// --- Non-servable: Knowledge Graph translations (ten languages),
		// the graph-based template over the shared cached client. ---
		&lf.GraphFunc[*corpus.Document]{
			Meta:   lf.Meta{Name: "kg_translated_bike", Category: lf.GraphBased, Servable: false},
			Client: client,
			Query: func(g kgraph.Client, d *corpus.Document) lf.Label {
				if hits, w := tables.hits(g, d); hits&w.in != 0 {
					return lf.Positive
				}
				return lf.Abstain
			},
		},
		&lf.GraphFunc[*corpus.Document]{
			Meta:   lf.Meta{Name: "kg_translated_other_accessory", Category: lf.GraphBased, Servable: false},
			Client: client,
			Query: func(g kgraph.Client, d *corpus.Document) lf.Label {
				if hits, w := tables.hits(g, d); hits&w.out != 0 && hits&w.in == 0 {
					return lf.Negative
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
				if hits, w := tables.hits(client, d); hits&w.in != 0 && hits&w.shop != 0 {
					return 1
				}
				return 0
			},
			PositiveAbove: 0.5,
			NegativeBelow: lf.NeverNegative,
		},
	}
}

// translationTables holds, per language, one automaton over the localized
// surface forms the product set's graph-backed functions look for, expanded
// from the knowledge graph exactly once.
type translationTables struct {
	keywords []string // in-category keyword set
	once     sync.Once
	langs    map[string]translatedWords
}

// translatedWords is one language's automaton over its in-category forms,
// its out-of-category forms and the shopping vocabulary, and which hit bits
// belong to each group. A group the graph has no forms for has no bits.
type translatedWords struct {
	m             *lf.Matcher
	in, out, shop uint64
}

// hits expands the tables through the (cached) client on first use and scans
// the document's text with its language's automaton. A language outside
// the serving locales has zero masks.
func (t *translationTables) hits(g kgraph.Client, d *corpus.Document) (uint64, translatedWords) {
	t.once.Do(func() { t.langs = expandTranslations(g, t.keywords) })
	w := t.langs[d.Language]
	if w.m == nil {
		return 0, w
	}
	return w.m.Hits(d.Text()), w
}

// expandTranslations asks the graph for every keyword's surface form in each
// serving locale and compiles each locale's forms, with the shopping
// vocabulary, into one automaton. A form found in several groups gets one
// bit in each group's mask; an empty form names nothing to look for.
func expandTranslations(g kgraph.Client, in []string) map[string]translatedWords {
	out := make(map[string]translatedWords)
	for _, lang := range kgraph.Languages {
		var w translatedWords
		var words []string
		bit := map[string]uint64{}
		add := func(mask *uint64, form string) {
			if _, ok := bit[form]; !ok {
				bit[form] = 1 << len(words)
				words = append(words, form)
			}
			*mask |= bit[form]
		}
		translate := func(mask *uint64, keywords []string) {
			for _, kw := range keywords {
				if form, ok := g.Translate(kw, lang); ok && form != "" {
					add(mask, form)
				}
			}
		}
		translate(&w.in, in)
		translate(&w.out, kgraph.OtherAccessoryKeywords)
		for _, word := range nlp.TopicVocab[nlp.TopicShopping] {
			add(&w.shop, word)
		}
		m, err := lf.NewMatcher(words) // at most 35 distinct non-empty words
		if err != nil {
			panic(err)
		}
		w.m = m
		out[lang] = w
	}
	return out
}

// ProductSet is ProductLFs as a named, validated set (cmd/lfrun's "product").
func ProductSet(graph kgraph.Client, seed int64) (*lf.Set[*corpus.Document], error) {
	return lf.NewSet("product", ProductLFs(graph, seed)...)
}
