package apps

import (
	"context"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/kgraph"
	"repro/internal/labelmodel"
	"repro/internal/lf"
	"repro/internal/mapreduce"
	lfapi "repro/pkg/drybell/lf"
)

func executeDocLFs(t *testing.T, docs []*corpus.Document, runners []DocLF) *labelmodel.Matrix {
	t.Helper()
	fs := dfs.NewMem()
	recs, err := corpus.MarshalDocuments(docs)
	if err != nil {
		t.Fatal(err)
	}
	if err := mapreduce.WriteInput(fs, "in/d", recs, 4); err != nil {
		t.Fatal(err)
	}
	e := &lf.Executor[*corpus.Document]{
		FS: fs, InputBase: "in/d", OutputPrefix: "labels",
		Decode: corpus.UnmarshalDocument, Parallelism: 4,
	}
	mxView, _, err := e.ExecuteContext(context.Background(), runners)
	if err != nil {
		t.Fatal(err)
	}
	mx := mxView.Matrix
	return mx
}

func executeEventLFs(t *testing.T, events []*corpus.Event, runners []EventLF) *labelmodel.Matrix {
	t.Helper()
	fs := dfs.NewMem()
	recs := make([][]byte, len(events))
	for i, e := range events {
		var err error
		if recs[i], err = e.Marshal(); err != nil {
			t.Fatal(err)
		}
	}
	if err := mapreduce.WriteInput(fs, "in/e", recs, 4); err != nil {
		t.Fatal(err)
	}
	e := &lf.Executor[*corpus.Event]{
		FS: fs, InputBase: "in/e", OutputPrefix: "labels",
		Decode: corpus.UnmarshalEvent, Parallelism: 4,
	}
	mxView, _, err := e.ExecuteContext(context.Background(), runners)
	if err != nil {
		t.Fatal(err)
	}
	mx := mxView.Matrix
	return mx
}

func TestTopicLFCountAndCensus(t *testing.T) {
	runners := TopicLFs(nil, 0.02, 1)
	if len(runners) != 10 {
		t.Fatalf("topic LFs = %d, want 10 (Table 1)", len(runners))
	}
	census := lfapi.Census(runners)
	for _, cat := range []lfapi.Category{lfapi.SourceHeuristic, lfapi.ContentHeuristic, lfapi.ModelBased, lfapi.GraphBased} {
		if census[cat] == 0 {
			t.Errorf("no %s LFs", cat)
		}
	}
	servable := lfapi.ServableIndices(runners)
	if len(servable) == 0 || len(servable) == len(runners) {
		t.Errorf("servable split degenerate: %v", servable)
	}
}

func TestProductLFCount(t *testing.T) {
	runners := ProductLFs(nil, 1)
	if len(runners) != 8 {
		t.Fatalf("product LFs = %d, want 8 (Table 1)", len(runners))
	}
	if len(lfapi.ServableIndices(runners)) != 3 {
		t.Errorf("servable product LFs = %d, want 3", len(lfapi.ServableIndices(runners)))
	}
}

func TestEventLFCountAndFamilies(t *testing.T) {
	runners := EventLFs(0, 1)
	if len(runners) != NumEventLFs {
		t.Fatalf("event LFs = %d, want %d", len(runners), NumEventLFs)
	}
	census := lfapi.Census(runners)
	if census[lfapi.ModelBased] < 20 || census[lfapi.GraphBased] < 30 || census[lfapi.ContentHeuristic] < 50 {
		t.Errorf("family sizes off: %v", census)
	}
	for _, r := range runners {
		if r.LFMeta().Servable {
			t.Fatalf("event LF %s claims to be servable; all are defined over non-servable features", r.LFMeta().Name)
		}
	}
	names := map[string]bool{}
	for _, r := range runners {
		if names[r.LFMeta().Name] {
			t.Fatalf("duplicate event LF name %s", r.LFMeta().Name)
		}
		names[r.LFMeta().Name] = true
	}
}

// Each topic LF must be better than random on the examples it votes on.
func TestTopicLFsBetterThanChance(t *testing.T) {
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 8000, PositiveRate: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	runners := TopicLFs(nil, 0.02, 1)
	mx := executeDocLFs(t, docs, runners)
	gold := make([]labelmodel.Label, len(docs))
	for i, d := range docs {
		if d.Gold {
			gold[i] = labelmodel.Positive
		} else {
			gold[i] = labelmodel.Negative
		}
	}
	analysis, err := lfapi.Analyze(mx, lfapi.Metas(runners), gold)
	if err != nil {
		t.Fatal(err)
	}
	for j, st := range analysis.PerLF {
		meta := runners[j].LFMeta()
		if st.Coverage == 0 {
			t.Errorf("%s never votes", meta.Name)
			continue
		}
		// The servable pattern rules are deliberately noisy first-cut
		// heuristics (keyword_celebrity sits near chance by design — the
		// generative model learns to discount it). The non-servable
		// organizational resources must be solidly better than chance;
		// every rule must retain some signal.
		floor := 0.35
		if !meta.Servable {
			floor = 0.6
		}
		if st.EmpiricalAccuracy < floor {
			t.Errorf("%s accuracy %.3f below floor %.2f (coverage %.3f)",
				meta.Name, st.EmpiricalAccuracy, floor, st.Coverage)
		}
	}
}

// The non-servable positive LFs must be more precise than the servable ones
// — the statistical driver of the Table 3 ablation.
func TestTopicNonServablePrecision(t *testing.T) {
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 10000, PositiveRate: 0.03, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	runners := TopicLFs(nil, 0.02, 1)
	mx := executeDocLFs(t, docs, runners)
	precision := func(j int) float64 {
		tp, fp := 0, 0
		for i, d := range docs {
			if mx.At(i, j) == labelmodel.Positive {
				if d.Gold {
					tp++
				} else {
					fp++
				}
			}
		}
		if tp+fp == 0 {
			return -1
		}
		return float64(tp) / float64(tp+fp)
	}
	byName := map[string]int{}
	for j, r := range runners {
		byName[r.LFMeta().Name] = j
	}
	servableP := precision(byName["keyword_celebrity"])
	nonServableP := precision(byName["ner_known_celebrity"])
	if nonServableP <= servableP {
		t.Errorf("NER celebrity precision %.3f should exceed keyword precision %.3f", nonServableP, servableP)
	}
}

// The KG translation LF must cover non-English positives the English
// keyword LFs miss (§3.2's motivation for querying the Knowledge Graph).
func TestProductTranslationCoverage(t *testing.T) {
	g := kgraph.Builtin()
	docs, err := corpus.GenerateProduct(corpus.ProductSpec{NumDocs: 12000, PositiveRate: 0.05, Graph: g, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	runners := ProductLFs(g, 1)
	mx := executeDocLFs(t, docs, runners)
	byName := map[string]int{}
	for j, r := range runners {
		byName[r.LFMeta().Name] = j
	}
	kwBike, kwAcc := byName["keyword_bike_en"], byName["keyword_accessory_en"]
	kg := byName["kg_translated_bike"]
	var kwHits, kgHits, posNonEn int
	for i, d := range docs {
		if !d.Gold || d.Language == "en" {
			continue
		}
		posNonEn++
		if mx.At(i, kwBike) == labelmodel.Positive || mx.At(i, kwAcc) == labelmodel.Positive {
			kwHits++
		}
		if mx.At(i, kg) == labelmodel.Positive {
			kgHits++
		}
	}
	if posNonEn == 0 {
		t.Fatal("no non-English positives")
	}
	if kgHits <= kwHits*3 {
		t.Errorf("KG translation hits %d should dwarf English keyword hits %d on non-English positives (of %d)",
			kgHits, kwHits, posNonEn)
	}
}

// Graph-based event LFs must have higher recall and lower precision than
// model-based ones, as §3.3 describes.
func TestEventLFFamilyProfiles(t *testing.T) {
	events, err := corpus.GenerateEvents(corpus.DefaultEventsSpec(8000, 9))
	if err != nil {
		t.Fatal(err)
	}
	runners := EventLFs(140, 1)
	mx := executeEventLFs(t, events, runners)
	famRecall := map[lfapi.Category][]float64{}
	famPrec := map[lfapi.Category][]float64{}
	totalPos := 0
	for _, e := range events {
		if e.Gold {
			totalPos++
		}
	}
	for j, r := range runners {
		tp, fp := 0, 0
		for i, e := range events {
			if mx.At(i, j) == labelmodel.Positive {
				if e.Gold {
					tp++
				} else {
					fp++
				}
			}
		}
		cat := r.LFMeta().Category
		if tp+fp > 0 {
			famPrec[cat] = append(famPrec[cat], float64(tp)/float64(tp+fp))
			famRecall[cat] = append(famRecall[cat], float64(tp)/float64(totalPos))
		}
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(famRecall[lfapi.GraphBased]) <= mean(famRecall[lfapi.ModelBased]) {
		t.Errorf("graph recall %.3f should exceed model recall %.3f",
			mean(famRecall[lfapi.GraphBased]), mean(famRecall[lfapi.ModelBased]))
	}
	if mean(famPrec[lfapi.GraphBased]) >= mean(famPrec[lfapi.ModelBased]) {
		t.Errorf("graph precision %.3f should be below model precision %.3f",
			mean(famPrec[lfapi.GraphBased]), mean(famPrec[lfapi.ModelBased]))
	}
}

// No labeling function may reference the subtle vocabulary — that headroom
// belongs to the discriminative model (Table 2's generalization effect).
func TestSubtleVocabularyUncovered(t *testing.T) {
	subtle := corpus.SubtleBikeWords()
	doc := &corpus.Document{
		ID: "s", Title: strings.Join(subtle, " "), Body: strings.Join(subtle, " "),
		URL: "https://x.example/1", Language: "en",
		Crawler: corpus.CrawlerStats{EngagementScore: 0.5, DomainAuthority: 0.5},
	}
	mx := executeDocLFs(t, []*corpus.Document{doc}, ProductLFs(nil, 1))
	for j := 0; j < mx.NumFuncs(); j++ {
		if mx.At(0, j) == labelmodel.Positive {
			t.Errorf("LF %d voted positive on subtle-vocab-only document", j)
		}
	}
}
