package corpus

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/kgraph"
	"repro/internal/nlp"
)

func TestDocumentRoundTrip(t *testing.T) {
	d := &Document{
		ID: "x1", Title: "t", Body: "b", URL: "https://a.example/1",
		Language: "fr", Gold: true,
		Crawler: CrawlerStats{EngagementScore: 0.7, DomainAuthority: 0.3},
	}
	b, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalDocument(b)
	if err != nil {
		t.Fatal(err)
	}
	want := *d
	want.text = d.Title + " " + d.Body // a decoded document carries its text
	if *got != want {
		t.Errorf("round trip: %+v vs %+v", got, d)
	}
}

func TestUnmarshalDocumentRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalDocument([]byte("{not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestMarshalDocumentsBatch(t *testing.T) {
	docs, err := GenerateTopic(DefaultTopicSpec(50, 3))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := MarshalDocuments(docs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		back, err := UnmarshalDocument(rec)
		if err != nil {
			t.Fatal(err)
		}
		if back.ID != docs[i].ID || back.Gold != docs[i].Gold {
			t.Fatalf("batch round trip diverged at %d", i)
		}
	}
}

func TestGenerateTopicShape(t *testing.T) {
	spec := TopicSpec{NumDocs: 20000, PositiveRate: 0.0086, Seed: 7}
	docs, err := GenerateTopic(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 20000 {
		t.Fatalf("len = %d", len(docs))
	}
	rate := PositiveRate(docs)
	if rate < 0.005 || rate > 0.013 {
		t.Errorf("positive rate = %v, want ≈ 0.0086", rate)
	}
	ids := map[string]bool{}
	for _, d := range docs {
		if ids[d.ID] {
			t.Fatalf("duplicate id %s", d.ID)
		}
		ids[d.ID] = true
		if d.Title == "" || d.Body == "" || !strings.HasPrefix(d.URL, "https://") {
			t.Fatalf("malformed doc %+v", d)
		}
		if d.Crawler.EngagementScore < 0 || d.Crawler.EngagementScore > 1 {
			t.Fatalf("engagement out of range: %v", d.Crawler.EngagementScore)
		}
	}
}

func TestGenerateTopicDeterministic(t *testing.T) {
	a, _ := GenerateTopic(DefaultTopicSpec(500, 42))
	b, _ := GenerateTopic(DefaultTopicSpec(500, 42))
	for i := range a {
		if a[i].Body != b[i].Body || a[i].Gold != b[i].Gold {
			t.Fatal("same seed produced different corpora")
		}
	}
	c, _ := GenerateTopic(DefaultTopicSpec(500, 43))
	same := true
	for i := range a {
		if a[i].Body != c[i].Body {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical corpora")
	}
}

// Positives must be statistically distinguishable by the planted signals:
// celebrity names recognized by NER, entertainment topics, engagement.
func TestTopicPlantedSignals(t *testing.T) {
	docs, err := GenerateTopic(TopicSpec{NumDocs: 30000, PositiveRate: 0.02, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	srv := nlp.NewServer(0, 1)
	if err := srv.Launch(); err != nil {
		t.Fatal(err)
	}
	celebKnown := map[string]bool{}
	for _, n := range nlp.CelebrityNames {
		celebKnown[n] = true
	}
	var posWithCeleb, pos, negWithCeleb, neg float64
	var posEng, negEng float64
	var posEnt, negEnt float64
	for _, d := range docs {
		res, err := srv.Annotate(d.Text())
		if err != nil {
			t.Fatal(err)
		}
		hasCeleb := false
		for _, e := range res.People() {
			if celebKnown[e.Text] {
				hasCeleb = true
			}
		}
		topTopic := res.TopTopic()
		if d.Gold {
			pos++
			posEng += d.Crawler.EngagementScore
			if hasCeleb {
				posWithCeleb++
			}
			if topTopic == nlp.TopicEntertainment {
				posEnt++
			}
		} else {
			neg++
			negEng += d.Crawler.EngagementScore
			if hasCeleb {
				negWithCeleb++
			}
			if topTopic == nlp.TopicEntertainment {
				negEnt++
			}
		}
	}
	if posWithCeleb/pos < 0.6 {
		t.Errorf("only %.2f of positives carry a known celebrity", posWithCeleb/pos)
	}
	if negWithCeleb/neg > 0.02 {
		t.Errorf("%.3f of negatives carry a known celebrity", negWithCeleb/neg)
	}
	if posEnt/pos < 0.8 {
		t.Errorf("only %.2f of positives classified entertainment", posEnt/pos)
	}
	if negEnt/neg > 0.35 {
		t.Errorf("%.2f of negatives classified entertainment", negEnt/neg)
	}
	if posEng/pos <= negEng/neg {
		t.Error("engagement signal not separating classes")
	}
}

func TestGenerateTopicValidation(t *testing.T) {
	if _, err := GenerateTopic(TopicSpec{NumDocs: 0, PositiveRate: 0.5}); err == nil {
		t.Error("zero docs accepted")
	}
	if _, err := GenerateTopic(TopicSpec{NumDocs: 10, PositiveRate: 0}); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestGenerateProductShape(t *testing.T) {
	docs, err := GenerateProduct(ProductSpec{NumDocs: 20000, PositiveRate: 0.0148, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rate := PositiveRate(docs)
	if rate < 0.010 || rate > 0.020 {
		t.Errorf("positive rate = %v, want ≈ 0.0148", rate)
	}
	langs := map[string]int{}
	for _, d := range docs {
		langs[d.Language]++
	}
	if len(langs) != len(kgraph.Languages) {
		t.Errorf("languages seen = %d, want %d", len(langs), len(kgraph.Languages))
	}
	enFrac := float64(langs["en"]) / float64(len(docs))
	if enFrac < 0.35 || enFrac > 0.45 {
		t.Errorf("english fraction = %v, want ≈ 0.4", enFrac)
	}
}

// Localized positives must carry the graph's translated keyword so the
// translation LF (and only it) can catch non-English positives.
func TestProductLocalization(t *testing.T) {
	g := kgraph.Builtin()
	docs, err := GenerateProduct(ProductSpec{NumDocs: 30000, PositiveRate: 0.05, Graph: g, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	allKw := append(append([]string{}, kgraph.BikeKeywords...), kgraph.BikeAccessoryKeywords...)
	hits, posNonEn := 0.0, 0.0
	for _, d := range docs {
		if !d.Gold || d.Language == "en" {
			continue
		}
		posNonEn++
		found := false
		for _, kw := range allKw {
			form, ok := g.Translate(kw, d.Language)
			if ok && strings.Contains(d.Body, form) {
				found = true
				break
			}
		}
		if found {
			hits++
		}
	}
	if posNonEn == 0 {
		t.Fatal("no non-English positives generated")
	}
	if hits/posNonEn < 0.95 {
		t.Errorf("only %.2f of non-English positives carry a translated keyword", hits/posNonEn)
	}
}

func TestGenerateEventsShape(t *testing.T) {
	events, err := GenerateEvents(DefaultEventsSpec(10000, 3))
	if err != nil {
		t.Fatal(err)
	}
	rate := 0.0
	for _, e := range events {
		if len(e.Servable) != EventServableDim || len(e.AggStats) != EventAggDim || len(e.GraphScores) != EventGraphDim {
			t.Fatalf("feature dims wrong: %d/%d/%d", len(e.Servable), len(e.AggStats), len(e.GraphScores))
		}
		if e.Gold {
			rate++
		}
	}
	rate /= float64(len(events))
	if rate < 0.13 || rate > 0.17 {
		t.Errorf("positive rate = %v, want ≈ 0.15", rate)
	}
}

// The offline aggregates must separate classes more cleanly than the
// real-time features — the premise of cross-feature serving.
func TestEventsAggregatesCleanerThanServable(t *testing.T) {
	events, err := GenerateEvents(DefaultEventsSpec(20000, 7))
	if err != nil {
		t.Fatal(err)
	}
	sep := func(get func(*Event) float64) float64 {
		var mp, mn, vp, vn, np, nn float64
		for _, e := range events {
			v := get(e)
			if e.Gold {
				mp += v
				np++
			} else {
				mn += v
				nn++
			}
		}
		mp /= np
		mn /= nn
		for _, e := range events {
			v := get(e)
			if e.Gold {
				vp += (v - mp) * (v - mp)
			} else {
				vn += (v - mn) * (v - mn)
			}
		}
		return (mp - mn) / math.Sqrt(vp/np+vn/nn)
	}
	aggSep := sep(func(e *Event) float64 { return e.AggStats[0] })
	servSep := sep(func(e *Event) float64 { return e.Servable[0] })
	if aggSep <= servSep {
		t.Errorf("aggregate separation %.2f should exceed servable %.2f", aggSep, servSep)
	}
	if servSep <= 0.3 {
		t.Errorf("servable features carry too little signal: %.2f", servSep)
	}
}

func TestEventRoundTrip(t *testing.T) {
	events, _ := GenerateEvents(DefaultEventsSpec(10, 1))
	for i, e := range events {
		rec, err := e.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalEvent(rec)
		if err != nil {
			t.Fatal(err)
		}
		if back.ID != events[i].ID || back.Gold != events[i].Gold {
			t.Fatal("event round trip diverged")
		}
		if back.Servable[0] != events[i].Servable[0] {
			t.Fatal("servable features diverged")
		}
	}
}

func TestMakeSplitPartition(t *testing.T) {
	sp, err := MakeSplit(100, 10, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Dev) != 10 || len(sp.Test) != 20 || len(sp.Train) != 70 {
		t.Fatalf("split sizes %d/%d/%d", len(sp.Dev), len(sp.Test), len(sp.Train))
	}
	seen := map[int]bool{}
	for _, set := range [][]int{sp.Dev, sp.Test, sp.Train} {
		for _, i := range set {
			if seen[i] {
				t.Fatalf("index %d in two splits", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 100 {
		t.Errorf("split covers %d of 100", len(seen))
	}
}

func TestMakeSplitValidation(t *testing.T) {
	if _, err := MakeSplit(10, 5, 5, 1); err == nil {
		t.Error("split leaving no train accepted")
	}
	if _, err := MakeSplit(10, -1, 2, 1); err == nil {
		t.Error("negative dev accepted")
	}
}

// Property: splits are deterministic in seed and always disjoint.
func TestMakeSplitProperty(t *testing.T) {
	f := func(seed int64, n16 uint16) bool {
		n := int(n16%500) + 30
		dev, test := n/10, n/5
		a, err := MakeSplit(n, dev, test, seed)
		if err != nil {
			return false
		}
		b, _ := MakeSplit(n, dev, test, seed)
		for i := range a.Dev {
			if a.Dev[i] != b.Dev[i] {
				return false
			}
		}
		seen := map[int]bool{}
		for _, set := range [][]int{a.Dev, a.Test, a.Train} {
			for _, i := range set {
				if i < 0 || i >= n || seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStatsFor(t *testing.T) {
	docs, _ := GenerateTopic(TopicSpec{NumDocs: 1000, PositiveRate: 0.1, Seed: 2})
	sp, _ := MakeSplit(len(docs), 100, 200, 3)
	st := StatsFor("topic", docs, sp, 10)
	if st.NumTrain != 700 || st.NumDev != 100 || st.NumTest != 200 || st.NumLFs != 10 {
		t.Errorf("stats = %+v", st)
	}
	if st.PositiveRate <= 0 || st.PositiveRate >= 0.3 {
		t.Errorf("test positive rate = %v", st.PositiveRate)
	}
}

func TestGoldLabels(t *testing.T) {
	docs := []*Document{{Gold: true}, {Gold: false}}
	g := GoldLabels(docs)
	if g[0] != 1 || g[1] != -1 {
		t.Errorf("GoldLabels = %v", g)
	}
	events := []*Event{{Gold: false}, {Gold: true}}
	ge := EventGoldLabels(events)
	if ge[0] != -1 || ge[1] != 1 {
		t.Errorf("EventGoldLabels = %v", ge)
	}
}
