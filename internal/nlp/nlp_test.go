package nlp

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unicode"
)

// Token and Tokenize are the tokenizer AppendWords was derived from, kept as the
// reference FuzzWords holds it to: a rune-at-a-time scan that lower-cases
// every token and records offsets nothing outside the tests ever read.
type Token struct {
	// Text is the lower-cased token text.
	Text string
	// Start and End are byte offsets into the original string.
	Start, End int
	// Capitalized records whether the original token began with an
	// upper-case letter.
	Capitalized bool
}

func Tokenize(text string) []Token {
	var tokens []Token
	start := -1
	cap := false
	flush := func(end int) {
		if start >= 0 {
			tokens = append(tokens, Token{
				Text:        strings.ToLower(text[start:end]),
				Start:       start,
				End:         end,
				Capitalized: cap,
			})
			start = -1
		}
	}
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			if start < 0 {
				start = i
				cap = unicode.IsUpper(r)
			}
			continue
		}
		flush(i)
	}
	flush(len(text))
	return tokens
}

// FuzzWords: on arbitrary bytes AppendWords returns exactly the reference
// tokenizer's token texts. The seeds run under plain `go test`.
func FuzzWords(f *testing.F) {
	for _, seed := range []string{
		"", "...!!!", "Ava Stone's premiere, 2024!", "snake_case _x_ __ 9lives",
		"MiXeD CASE ÉCOLE Ǆemal ǅ ǆ İstanbul ẞ", "naïve café ümlaut 東京 タワー ١٢٣ ४२",
		"bad\xffutf8 \xc3( \xe2\x82 tail\xf0\x9f", "a\x00b\tc\nd\u00a0e\u2003f", "x",
		"Ünïcode_and_ASCII_Mixed9 K\u212a \u2160\u2161 ﬁn",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		got := AppendWords(nil, text)
		toks := Tokenize(text)
		if len(got) != len(toks) {
			t.Fatalf("AppendWords(%q) = %q, reference tokens %v", text, got, toks)
		}
		for i, tok := range toks {
			if got[i] != tok.Text {
				t.Fatalf("AppendWords(%q)[%d] = %q, reference %q", text, i, got[i], tok.Text)
			}
		}
	})
}

// generatedText draws a document-like text over the gazetteers, the topic and
// sentiment lexicons, filler and punctuation, in mixed case.
func generatedText(rng *rand.Rand, words int) string {
	pools := [][]string{CelebrityNames, OtherPersonNames, UnknownPersonNames, OrgNames, PlaceNames,
		{"the", "a", "of", "Update", "note", "brief", "2024", "said", "x_y"},
		{"amazing", "scandal", "superb", "fraud", "Stunning", "recall"}}
	for _, topic := range AllTopics {
		pools = append(pools, TopicVocab[topic])
	}
	var b strings.Builder
	for i := 0; i < words; i++ {
		pool := pools[rng.Intn(len(pools))]
		w := pool[rng.Intn(len(pool))]
		if rng.Intn(4) == 0 {
			w = strings.ToUpper(w[:1]) + w[1:]
		}
		b.WriteString(w)
		b.WriteString([]string{" ", " ", " ", ", ", ". ", "'s ", " — "}[rng.Intn(7)])
	}
	return b.String()
}

// TestAnnotateMatchesModels: the server's Annotate equals the one pass run on
// the text with its NER, field for field, and People is the persons among
// its entities.
func TestAnnotateMatchesModels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, missRate := range []float64{0, 0.3} {
		s := NewServer(missRate, 11)
		if err := s.Launch(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			text := generatedText(rng, rng.Intn(60))
			res, err := s.Annotate(text)
			if err != nil {
				t.Fatal(err)
			}
			want := &Result{
				Entities:  annotate(text, s.ner).Entities,
				Topics:    annotate(text, &NER{}).Topics,
				Sentiment: annotate(text, &NER{}).Sentiment,
			}
			if !reflect.DeepEqual(res.Entities, want.Entities) || !reflect.DeepEqual(res.Topics, want.Topics) || res.Sentiment != want.Sentiment {
				t.Fatalf("Annotate(%q) = %+v, models say %+v", text, res, want)
			}
			if got, want := res.People(), People(res.Entities); !reflect.DeepEqual(got, want) {
				t.Fatalf("Annotate(%q).People() = %v, want %v", text, got, want)
			}
		}
	}
}

// refEntityTypes maps every gazetteer name to its type.
var refEntityTypes = func() map[string]EntityType {
	names := map[string]EntityType{}
	for _, g := range []struct {
		names []string
		typ   EntityType
	}{{CelebrityNames, EntityPerson}, {OtherPersonNames, EntityPerson}, {OrgNames, EntityOrg}, {PlaceNames, EntityPlace}} {
		for _, name := range g.names {
			names[name] = g.typ
		}
	}
	return names
}()

// refMiss is the NER's miss draw through hash/fnv.
func refMiss(seed int64, text, name string) float64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(text))
	h.Write([]byte{0})
	h.Write([]byte(name))
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// refRecognize is the straightforward NER the lexicon scan replaced:
// pair-then-single map lookups over AppendWords with a seen set.
func refRecognize(missRate float64, seed int64, text string) []Entity {
	words := AppendWords(nil, text)
	var out []Entity
	seen := map[string]bool{}
	emit := func(name string, typ EntityType) {
		if seen[name] || missRate > 0 && refMiss(seed, text, name) < missRate {
			return
		}
		seen[name] = true
		out = append(out, Entity{Text: name, Type: typ, Confidence: 0.9})
	}
	for i := range words {
		if i+1 < len(words) {
			pair := words[i] + " " + words[i+1]
			if typ, ok := refEntityTypes[pair]; ok {
				emit(pair, typ)
				continue
			}
		}
		if typ, ok := refEntityTypes[words[i]]; ok {
			emit(words[i], typ)
		}
	}
	return out
}

// refClassify is the straightforward topic scorer: a map of counts over
// TopicVocab, sorted with sort.Slice.
func refClassify(text string) []TopicScore {
	counts := map[string]float64{}
	total := 0.0
	for _, w := range AppendWords(nil, text) {
		for topic, vocab := range TopicVocab {
			for _, v := range vocab {
				if v == w {
					counts[topic]++
					total++
				}
			}
		}
	}
	if total == 0 {
		return nil
	}
	var out []TopicScore
	for topic, c := range counts {
		out = append(out, TopicScore{Topic: topic, Score: c / total})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Topic < out[b].Topic
	})
	return out
}

// refSentiment counts AppendWords tokens in two maps built from the sentiment lists.
func refSentiment(text string) float64 {
	positive, negative := map[string]bool{}, map[string]bool{}
	for _, w := range positiveWords {
		positive[w] = true
	}
	for _, w := range negativeWords {
		negative[w] = true
	}
	pos, neg := 0, 0
	for _, w := range AppendWords(nil, text) {
		if positive[w] {
			pos++
		}
		if negative[w] {
			neg++
		}
	}
	if pos+neg == 0 {
		return 0
	}
	return float64(pos-neg) / float64(pos+neg)
}

// TestModelsMatchReference holds the lexicon-backed NER and topic scorer and
// the inlined miss hash to the straightforward references.
func TestModelsMatchReference(t *testing.T) {
	if len(TopicVocab) != len(AllTopics) {
		t.Fatalf("TopicVocab has %d topics, AllTopics %d", len(TopicVocab), len(AllTopics))
	}
	rng := rand.New(rand.NewSource(6))
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		ner := NewNER(0.4, seed)
		for i := 0; i < 200; i++ {
			text := generatedText(rng, rng.Intn(50))
			if got, want := annotate(text, ner).Entities, refRecognize(ner.MissRate, seed, text); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: entities of %q = %v, reference %v", seed, text, got, want)
			}
			if got, want := annotate(text, &NER{}).Topics, refClassify(text); !reflect.DeepEqual(got, want) {
				t.Fatalf("topics of %q = %v, reference %v", text, got, want)
			}
		}
	}
}

// FuzzAnnotate: on arbitrary bytes Annotate equals the references field for
// field, at miss rates 0 and 0.4. The references read AppendWords and their own
// maps, not the lexicon, so they check it independently.
func FuzzAnnotate(f *testing.F) {
	for _, seed := range []string{
		"Ava Stone and HOWARD FLECK met Quantix Labs in Marrow Bay",
		"ava. stone, marrow—bay kai;rivers", "premiere with Ava Stone",
		"bad\xffutf8 ava\xc3 stone \xe2\x82 \u212aai rivers", "",
	} {
		f.Add(seed)
	}
	servers := []*Server{NewServer(0, 3), NewServer(0.4, 3)}
	for _, s := range servers {
		if err := s.Launch(); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, s := range servers {
			res, err := s.Annotate(text)
			if err != nil {
				t.Fatal(err)
			}
			if want := refRecognize(s.ner.MissRate, 3, text); !reflect.DeepEqual(res.Entities, want) {
				t.Fatalf("miss rate %v: Annotate(%q).Entities = %v, reference %v", s.ner.MissRate, text, res.Entities, want)
			}
			if want := People(res.Entities); !reflect.DeepEqual(res.People(), want) {
				t.Fatalf("Annotate(%q).People() = %v, want %v", text, res.People(), want)
			}
			if want := refClassify(text); !reflect.DeepEqual(res.Topics, want) {
				t.Fatalf("Annotate(%q).Topics = %v, reference %v", text, res.Topics, want)
			}
			if want := refSentiment(text); res.Sentiment != want {
				t.Fatalf("Annotate(%q).Sentiment = %v, reference %v", text, res.Sentiment, want)
			}
		}
	})
}

// fixedDocument is the generated text the allocation ceilings and the
// benchmarks share (~120 words, like a topic-corpus document).
var fixedDocument = generatedText(rand.New(rand.NewSource(42)), 120)

// TestAllocationCeilings catches an allocation regression on the annotate
// path without the repository benchmark. AppendWords allocates its result slice
// plus one string per token that needed lower-casing. Annotate allocates the
// Result and its entity, topic and person slices whatever the text's length,
// plus two to spill fixedDocument's 27 entities past the 8 it keeps on the
// stack. A text four times as long (31 entities after its own misses)
// allocates no more, so a token slice, or a string per token, coming back
// fails. People() of an annotation allocates nothing.
func TestAllocationCeilings(t *testing.T) {
	upper := 0
	for _, tok := range Tokenize(fixedDocument) {
		if tok.Capitalized {
			upper++
		}
	}
	words := testing.AllocsPerRun(50, func() { AppendWords(make([]string, 0, len(fixedDocument)/6+1), fixedDocument) })
	if ceiling := float64(upper + 2); words > ceiling {
		t.Errorf("AppendWords: %.0f allocs per run, ceiling %.0f (%d capitalized tokens)", words, ceiling, upper)
	}
	s := NewServer(0.1, 1)
	if err := s.Launch(); err != nil {
		t.Fatal(err)
	}
	annotate := func(text string) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := s.Annotate(text); err != nil {
				t.Fatal(err)
			}
		})
	}
	const ceiling = 6
	short, long := annotate(fixedDocument), annotate(strings.Repeat(fixedDocument, 4))
	if short > ceiling {
		t.Errorf("Annotate: %.0f allocs per run, ceiling %d", short, ceiling)
	}
	if long != short {
		t.Errorf("Annotate: %.0f allocs per run on a 4x longer text, %.0f on fixedDocument", long, short)
	}
	for _, text := range []string{fixedDocument, "Ava Stone met Howard Fleck"} { // mixed types; persons only
		res, err := s.Annotate(text)
		if err != nil {
			t.Fatal(err)
		}
		if people := testing.AllocsPerRun(50, func() { res.People() }); len(res.People()) == 0 || people != 0 {
			t.Errorf("People() of Annotate(%q): %d persons, %.0f allocs per call", text, len(res.People()), people)
		}
	}
}

var benchSink int

func BenchmarkWords(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(len(fixedDocument)))
	for i := 0; i < b.N; i++ {
		benchSink += len(AppendWords(nil, fixedDocument))
	}
}

func BenchmarkAnnotate(b *testing.B) {
	s := NewServer(0.1, 1)
	if err := s.Launch(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(fixedDocument)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Annotate(fixedDocument)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(res.Entities)
	}
}

func TestTokenizeBasics(t *testing.T) {
	toks := Tokenize("Ava Stone's premiere, 2024!")
	want := []string{"ava", "stone", "s", "premiere", "2024"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i, w := range want {
		if toks[i].Text != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Text, w)
		}
	}
	if !toks[0].Capitalized || toks[3].Capitalized {
		t.Error("capitalization flags wrong")
	}
	if toks[0].Start != 0 || toks[0].End != 3 {
		t.Errorf("offsets = [%d,%d)", toks[0].Start, toks[0].End)
	}
}

func TestTokenizeEmptyAndPunct(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("Tokenize(\"\") = %v", got)
	}
	if got := Tokenize("...!!!"); len(got) != 0 {
		t.Errorf("Tokenize(punct) = %v", got)
	}
}

// Property: offsets always slice back to text matching the token (modulo case).
func TestTokenizeOffsetsProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok.Start < 0 || tok.End > len(s) || tok.Start >= tok.End {
				return false
			}
			if strings.ToLower(s[tok.Start:tok.End]) != tok.Text {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNERFindsGazetteerEntities(t *testing.T) {
	ner := NewNER(0, 1)
	ents := annotate("Ava Stone visited Quantix Labs in Eastport.", ner).Entities
	byType := map[EntityType][]string{}
	for _, e := range ents {
		byType[e.Type] = append(byType[e.Type], e.Text)
	}
	if len(byType[EntityPerson]) != 1 || byType[EntityPerson][0] != "ava stone" {
		t.Errorf("persons = %v", byType[EntityPerson])
	}
	if len(byType[EntityOrg]) != 1 || byType[EntityOrg][0] != "quantix labs" {
		t.Errorf("orgs = %v", byType[EntityOrg])
	}
	if len(byType[EntityPlace]) != 1 || byType[EntityPlace][0] != "eastport" {
		t.Errorf("places = %v", byType[EntityPlace])
	}
}

func TestNERMissesUnknownNames(t *testing.T) {
	ner := NewNER(0, 1)
	ents := annotate("Tilda Vess gave a speech.", ner).Entities
	if len(People(ents)) != 0 {
		t.Errorf("NER should not know held-out names, got %v", ents)
	}
}

func TestNERMissRate(t *testing.T) {
	ner := NewNER(1.0, 1) // always miss
	if got := annotate("Ava Stone arrived.", ner).Entities; len(got) != 0 {
		t.Errorf("MissRate=1 still recognized %v", got)
	}
}

func TestNERDeduplicates(t *testing.T) {
	ner := NewNER(0, 1)
	ents := annotate("ava stone met ava stone", ner).Entities
	if len(ents) != 1 {
		t.Errorf("duplicate mentions not merged: %v", ents)
	}
}

func TestNERConcurrent(t *testing.T) {
	ner := NewNER(0.3, 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = annotate("Ava Stone and Howard Fleck in Eastport", ner).Entities
			}
		}()
	}
	wg.Wait() // passes if no race under -race
}

func TestContainsName(t *testing.T) {
	ents := []Entity{{Text: "ava stone", Type: EntityPerson}}
	if !ContainsName(ents, "Ava Stone") {
		t.Error("ContainsName should be case-insensitive")
	}
	if ContainsName(ents, "liam cross") {
		t.Error("ContainsName false positive")
	}
}

func TestTopicModelClassifies(t *testing.T) {
	res := annotate("the premiere drew paparazzi to the redcarpet award show", &NER{})
	if topic := res.TopTopic(); topic != TopicEntertainment {
		t.Errorf("TopTopic = %q, want entertainment", topic)
	}
	if score := res.Topics[0].Score; score <= 0 || score > 1 {
		t.Errorf("score = %v", score)
	}
	if topic := annotate("quarterly earnings and dividend yield beat inflation", &NER{}).TopTopic(); topic != TopicFinance {
		t.Errorf("TopTopic = %q, want finance", topic)
	}
}

func TestTopicModelUncuedText(t *testing.T) {
	if got := annotate("zzz qqq www", &NER{}).Topics; got != nil {
		t.Errorf("Classify(uncued) = %v", got)
	}
	if topic := annotate("zzz", &NER{}).TopTopic(); topic != "" {
		t.Errorf("TopTopic(uncued) = %q", topic)
	}
}

func TestTopicScoresNormalized(t *testing.T) {
	scores := annotate("premiere league earnings recipe", &NER{}).Topics
	sum := 0.0
	for _, s := range scores {
		sum += s.Score
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("scores sum to %v", sum)
	}
	for i := 0; i+1 < len(scores); i++ {
		if scores[i].Score < scores[i+1].Score {
			t.Error("scores not sorted descending")
		}
	}
}

func TestSentiment(t *testing.T) {
	if s := annotate("an amazing stunning superb show", &NER{}).Sentiment; s != 1 {
		t.Errorf("positive sentiment = %v", s)
	}
	if s := annotate("scandal lawsuit fraud", &NER{}).Sentiment; s != -1 {
		t.Errorf("negative sentiment = %v", s)
	}
	if s := annotate("the show happened", &NER{}).Sentiment; s != 0 {
		t.Errorf("neutral sentiment = %v", s)
	}
	if s := annotate("amazing scandal", &NER{}).Sentiment; s != 0 {
		t.Errorf("mixed sentiment = %v", s)
	}
}

func TestServerLifecycle(t *testing.T) {
	s := NewServer(0, 1)
	if _, err := s.Annotate("x"); err != ErrNotLaunched {
		t.Errorf("Annotate before launch: %v", err)
	}
	if err := s.Launch(); err != nil {
		t.Fatal(err)
	}
	if err := s.Launch(); err == nil {
		t.Error("double launch accepted")
	}
	res, err := s.Annotate("Ava Stone at the premiere")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.People()) != 1 {
		t.Errorf("people = %v", res.People())
	}
	if res.TopTopic() != TopicEntertainment {
		t.Errorf("top topic = %q", res.TopTopic())
	}
	if s.Calls() != 1 {
		t.Errorf("calls = %d", s.Calls())
	}
	s.Stop()
	if _, err := s.Annotate("x"); err != ErrNotLaunched {
		t.Errorf("Annotate after stop: %v", err)
	}
}

func TestResultTopTopicEmpty(t *testing.T) {
	r := &Result{}
	if r.TopTopic() != "" {
		t.Error("empty result TopTopic should be empty")
	}
}
