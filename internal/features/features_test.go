package features

import (
	"hash/fnv"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
	"repro/internal/israce"
	"repro/internal/nlp"
)

// Index hashes a feature name to its coordinate.
func (h *Hasher) Index(feature string) uint32 {
	return fnvAdd(fnvOffset, feature) & (h.Dim - 1)
}

// Vector counts feature strings into a sparse vector over their sorted Index
// coordinates. Vector(DocumentFeatures(d, bigrams)) is the definition
// DocumentVector is held to.
func (h *Hasher) Vector(feats []string) *SparseVector {
	counts := make(map[uint32]float64)
	for _, f := range feats {
		counts[h.Index(f)]++
	}
	v := &SparseVector{}
	for idx := range counts {
		v.Indices = append(v.Indices, idx)
	}
	slices.Sort(v.Indices)
	for _, idx := range v.Indices {
		v.Values = append(v.Values, counts[idx])
	}
	return v
}

// DocumentFeatures builds a document's servable feature strings.
func DocumentFeatures(d *corpus.Document, bigrams bool) []string {
	words := nlp.AppendWords(nil, d.Text())
	feats := []string{"lang:" + d.Language}
	for i, w := range words {
		feats = append(feats, "w:"+w)
		if bigrams && i+1 < len(words) {
			feats = append(feats, "b:"+w+"_"+words[i+1])
		}
	}
	if dom := URLDomain(d.URL); dom != "" {
		feats = append(feats, "d:"+dom)
	}
	return feats
}

func TestNewHasherValidation(t *testing.T) {
	if _, err := NewHasher(0); err == nil {
		t.Error("dim 0 accepted")
	}
	if _, err := NewHasher(1000); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := NewHasher(1 << 10); err != nil {
		t.Error(err)
	}
}

func TestHasherDeterministicAndInRange(t *testing.T) {
	h, _ := NewHasher(1 << 8)
	f := func(s string) bool {
		i := h.Index(s)
		return i < h.Dim && i == h.Index(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVectorSortedAndCounted(t *testing.T) {
	h, _ := NewHasher(1 << 16)
	v := h.Vector([]string{"a", "b", "a", "c", "a"})
	for i := 0; i+1 < len(v.Indices); i++ {
		if v.Indices[i] >= v.Indices[i+1] {
			t.Fatal("indices not strictly increasing")
		}
	}
	total := 0.0
	for _, x := range v.Values {
		total += x
	}
	if total != 5 {
		t.Errorf("total count = %v, want 5", total)
	}
	// "a" appears 3 times.
	ai := h.Index("a")
	found := false
	for k, idx := range v.Indices {
		if idx == ai && v.Values[k] >= 3 {
			found = true
		}
	}
	if !found {
		t.Error("count for repeated feature missing")
	}
}

func TestDotAndNorm(t *testing.T) {
	v := &SparseVector{Indices: []uint32{1, 3}, Values: []float64{2, -1}}
	w := []float64{9, 4, 9, 5}
	if got := v.Dot(w); got != 2*4-1*5 {
		t.Errorf("Dot = %v, want 3", got)
	}
}

func TestURLDomain(t *testing.T) {
	cases := map[string]string{
		"https://starbeat.example/story/1": "starbeat.example",
		"http://a.b/c/d":                   "a.b",
		"nohost":                           "nohost",
		"https://host.only":                "host.only",
	}
	for in, want := range cases {
		if got := URLDomain(in); got != want {
			t.Errorf("URLDomain(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDocumentFeaturesServableOnly(t *testing.T) {
	d := &corpus.Document{
		Title: "Ava Stone premiere", Body: "redcarpet gossip",
		URL: "https://starbeat.example/1", Language: "en",
		Crawler: corpus.CrawlerStats{EngagementScore: 0.99, DomainAuthority: 0.99},
	}
	feats := DocumentFeatures(d, true)
	seen := map[string]bool{}
	for _, f := range feats {
		seen[f] = true
		// Only servable feature namespaces may appear.
		switch f[0] {
		case 'w', 'b', 'd', 'l':
		default:
			t.Errorf("unexpected feature namespace in %q", f)
		}
	}
	if !seen["w:premiere"] || !seen["d:starbeat.example"] || !seen["lang:en"] {
		t.Errorf("missing expected features: %v", feats)
	}
	if !seen["b:ava_stone"] {
		t.Errorf("bigrams missing: %v", feats)
	}
	// Crawler stats must never leak into servable features.
	for f := range seen {
		if f == "0.99" {
			t.Error("crawler stat leaked into features")
		}
	}
}

func TestDocumentFeaturesBigramToggle(t *testing.T) {
	d := &corpus.Document{Title: "alpha beta", Body: "gamma", URL: "https://x.example/1", Language: "en"}
	with := DocumentFeatures(d, true)
	without := DocumentFeatures(d, false)
	if len(with) <= len(without) {
		t.Error("bigrams should add features")
	}
	for _, f := range without {
		if f[0] == 'b' {
			t.Error("bigram present despite toggle off")
		}
	}
}

func TestDocumentVectors(t *testing.T) {
	docs, err := corpus.GenerateTopic(corpus.DefaultTopicSpec(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	h, _ := NewHasher(1 << 14)
	vecs := h.DocumentVectors(docs, true)
	if len(vecs) != len(docs) {
		t.Fatalf("len = %d", len(vecs))
	}
	for i, v := range vecs {
		if len(v.Indices) == 0 {
			t.Errorf("doc %d has empty feature vector", i)
		}
	}
}

// TestIndexIsFNV1a holds the written-out hash to hash/fnv, so that Vector —
// the oracle of the next test — does not lean on the code it checks.
func TestIndexIsFNV1a(t *testing.T) {
	h, _ := NewHasher(1 << 16)
	f := func(s string) bool {
		ref := fnv.New32a()
		ref.Write([]byte(s))
		return h.Index(s) == ref.Sum32()&(h.Dim-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestDocumentVectorMatchesFeatureStrings holds the streaming featurizer to
// its definition, Vector(DocumentFeatures(d, bigrams)), bit for bit.
func TestDocumentVectorMatchesFeatureStrings(t *testing.T) {
	docs, err := corpus.GenerateTopic(corpus.DefaultTopicSpec(2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs,
		&corpus.Document{},
		&corpus.Document{Language: "en"},
		&corpus.Document{Title: "", Body: "solo", URL: "https://a.example/x", Language: "en"},
		&corpus.Document{Title: "solo", Body: "", URL: "a.example", Language: "de"},
		&corpus.Document{Title: "Ava STONE", Body: "Ünïcödé ÉCLAIR naïve 東京 tower_7", URL: "http://x/", Language: "fr"},
		&corpus.Document{Title: "twice twice", Body: "twice twice twice", URL: "://", Language: ""},
		&corpus.Document{Title: "bad \xff utf8\xc3", Body: "--- ... !!!", URL: "https:///path", Language: "en"},
	)
	for _, dim := range []uint32{1 << 16, 1 << 8} {
		h, _ := NewHasher(dim)
		for _, bigrams := range []bool{true, false} {
			for i, d := range docs {
				want := h.Vector(DocumentFeatures(d, bigrams))
				if got := h.DocumentVector(d, bigrams); !reflect.DeepEqual(got, want) {
					t.Fatalf("dim %d bigrams %v doc %d (%q):\n got %v\nwant %v", dim, bigrams, i, d.Text(), got, want)
				}
			}
		}
	}
}

// TestDocumentVectorConcurrent: the pooled scratch is per call; vectors built
// on many goroutines at once are the ones built alone.
func TestDocumentVectorConcurrent(t *testing.T) {
	docs, err := corpus.GenerateTopic(corpus.DefaultTopicSpec(200, 6))
	if err != nil {
		t.Fatal(err)
	}
	h, _ := NewHasher(1 << 12)
	want := make([]*SparseVector, len(docs))
	for i, d := range docs {
		want[i] = h.Vector(DocumentFeatures(d, true))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range docs {
				i := (k + g*25) % len(docs)
				if got := h.DocumentVector(docs[i], true); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d doc %d: got %v want %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDocumentVectorAllocations: a vector is its struct and its two slices;
// tokens and coordinates live in pooled scratch.
func TestDocumentVectorAllocations(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	docs, err := corpus.GenerateTopic(corpus.DefaultTopicSpec(8, 5))
	if err != nil {
		t.Fatal(err)
	}
	h, _ := NewHasher(1 << 16)
	h.DocumentVector(docs[0], true) // size the scratch
	if got := testing.AllocsPerRun(100, func() {
		for _, d := range docs {
			h.DocumentVector(d, true)
		}
	}); got > 3*float64(len(docs)) {
		t.Errorf("%v allocations for %d documents, ceiling 3 each", got, len(docs))
	}
}

var sinkVector *SparseVector

func BenchmarkDocumentVector(b *testing.B) {
	docs, err := corpus.GenerateTopic(corpus.DefaultTopicSpec(256, 5))
	if err != nil {
		b.Fatal(err)
	}
	h, _ := NewHasher(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkVector = h.DocumentVector(docs[i%len(docs)], true)
	}
}
