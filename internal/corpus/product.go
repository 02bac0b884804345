package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/kgraph"
	"repro/internal/nlp"
)

// ProductSpec configures the product-classification corpus (§3.2: detect
// references to products in a category of interest, after the category was
// expanded to include accessories and parts — here, bicycles).
type ProductSpec struct {
	// NumDocs is the corpus size (paper scale: 6.5M unlabeled).
	NumDocs int
	// PositiveRate is the gold-positive fraction (Table 1: 1.48%).
	PositiveRate float64
	// Graph supplies keyword translations; nil uses kgraph.Builtin().
	Graph *kgraph.Graph
	// Seed drives all randomness.
	Seed int64
}

// DefaultProductSpec returns a scaled-down spec with the paper's class skew.
func DefaultProductSpec(numDocs int, seed int64) ProductSpec {
	return ProductSpec{NumDocs: numDocs, PositiveRate: 0.0148, Seed: seed}
}

// subtleBikeWords correlate with the positive class but appear in no LF.
var subtleBikeWords = []string{
	"peloton", "cadence", "puncture", "tubeless", "groupset",
	"paceline", "singletrack", "bidon", "windbreaker", "clipless",
}

// merchantDomains for product listings.
var merchantDomains = []string{"shopzone.example", "martplus.example", "dealhub.example"}

// languageWeights puts 40% of the corpus in English, the rest spread over
// the other nine locales — the coverage problem the Knowledge Graph
// translation LF exists to solve.
func sampleLanguage(rng *rand.Rand) string {
	if rng.Float64() < 0.4 {
		return "en"
	}
	return kgraph.Languages[1+rng.Intn(len(kgraph.Languages)-1)]
}

// GenerateProduct draws the product-classification corpus. Positives mention
// a bike or bike-accessory keyword localized to the document's language via
// the knowledge graph; negatives mention other products, including the
// out-of-category accessories that motivated the relabeling.
func GenerateProduct(spec ProductSpec) ([]*Document, error) {
	if spec.NumDocs <= 0 {
		return nil, fmt.Errorf("corpus: product spec needs NumDocs > 0, got %d", spec.NumDocs)
	}
	if spec.PositiveRate <= 0 || spec.PositiveRate >= 1 {
		return nil, fmt.Errorf("corpus: product positive rate %v out of (0,1)", spec.PositiveRate)
	}
	g := spec.Graph
	if g == nil {
		g = kgraph.Builtin()
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	docs := make([]*Document, spec.NumDocs)
	for i := range docs {
		lang := sampleLanguage(rng)
		if rng.Float64() < spec.PositiveRate {
			docs[i] = genBikeDoc(rng, g, lang, i)
		} else {
			docs[i] = genNonBikeDoc(rng, g, lang, i)
		}
	}
	return docs, nil
}

// localize translates a keyword into the document language through the
// graph; unknown translations fall back to English (as real listings often
// mix in English terms).
func localize(g *kgraph.Graph, kw, lang string) string {
	if form, ok := g.Translate(kw, lang); ok {
		return form
	}
	return kw
}

func genBikeDoc(rng *rand.Rand, g *kgraph.Graph, lang string, i int) *Document {
	// 40% core bike products, 60% accessories/parts (the expanded category).
	var kw string
	if rng.Float64() < 0.4 {
		kw = pick(rng, kgraph.BikeKeywords)
	} else {
		kw = pick(rng, kgraph.BikeAccessoryKeywords)
	}
	words := []string{localize(g, kw, lang)}
	words = append(words, sampleWords(rng, nlp.TopicVocab[nlp.TopicShopping], 3+rng.Intn(3))...)
	if rng.Float64() < 0.75 {
		words = append(words, pick(rng, subtleBikeWords))
	}
	// 10% of positives also mention an out-of-category accessory (bundles),
	// capping the precision of the negative keyword heuristic.
	if rng.Float64() < 0.1 {
		words = append(words, localize(g, pick(rng, kgraph.OtherAccessoryKeywords), lang))
	}
	words = append(words, fillerWords(rng, 2)...)
	shuffle(rng, words[1:])
	return &Document{
		ID:       fmt.Sprintf("product-%08d", i),
		Title:    strings.Join(words[:min(4, len(words))], " "),
		Body:     strings.Join(words, " "),
		URL:      fmt.Sprintf("https://%s/item/%d", pick(rng, merchantDomains), i),
		Language: lang,
		Gold:     true,
		Crawler: CrawlerStats{
			EngagementScore: clamp01(0.55 + rng.NormFloat64()*0.15),
			DomainAuthority: clamp01(0.6 + rng.NormFloat64()*0.15),
		},
	}
}

func genNonBikeDoc(rng *rand.Rand, g *kgraph.Graph, lang string, i int) *Document {
	var words []string
	r := rng.Float64()
	switch {
	case r < 0.3:
		// Out-of-category accessory listings — the hard negatives.
		words = append(words, localize(g, pick(rng, kgraph.OtherAccessoryKeywords), lang))
		words = append(words, sampleWords(rng, nlp.TopicVocab[nlp.TopicShopping], 4+rng.Intn(3))...)
	case r < 0.6:
		// Generic shopping content.
		words = sampleWords(rng, nlp.TopicVocab[nlp.TopicShopping], 5+rng.Intn(3))
	default:
		// Unrelated content drawn from the other coarse topics.
		topics := []string{nlp.TopicTechnology, nlp.TopicTravel, nlp.TopicFood, nlp.TopicFinance}
		words = sampleWords(rng, nlp.TopicVocab[topics[rng.Intn(len(topics))]], 5+rng.Intn(3))
	}
	// 0.4% contamination: a bike-accessory keyword in a negative listing
	// (e.g. a multi-sport helmet in general sporting goods). Product's
	// servable-only weakness (Table 3) comes from the language-coverage
	// gap, not keyword noise, so contamination stays small enough that
	// keyword-voted docs remain predominantly positive.
	if rng.Float64() < 0.004 {
		words = append(words, localize(g, pick(rng, kgraph.BikeAccessoryKeywords), lang))
	}
	// 0.05% subtle-vocabulary contamination (see the topic generator).
	if rng.Float64() < 0.0005 {
		words = append(words, pick(rng, subtleBikeWords))
	}
	words = append(words, fillerWords(rng, 2)...)
	shuffle(rng, words)
	return &Document{
		ID:       fmt.Sprintf("product-%08d", i),
		Title:    strings.Join(words[:min(4, len(words))], " "),
		Body:     strings.Join(words, " "),
		URL:      fmt.Sprintf("https://%s/item/%d", pick(rng, merchantDomains), i),
		Language: lang,
		Gold:     false,
		Crawler: CrawlerStats{
			EngagementScore: clamp01(0.45 + rng.NormFloat64()*0.15),
			DomainAuthority: clamp01(0.6 + rng.NormFloat64()*0.15),
		},
	}
}

// SubtleBikeWords exposes the uncovered positive vocabulary.
//
//drybellvet:testapi — apps tests check that no product LF votes on this held-out vocabulary
func SubtleBikeWords() []string { return append([]string(nil), subtleBikeWords...) }
