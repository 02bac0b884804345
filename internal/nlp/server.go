package nlp

import (
	"cmp"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"
)

// Result is the full annotation bundle an NLPLabelingFunction receives for
// one example (the paper's NLPResult).
type Result struct {
	// Entities found by the NER model, each name once, in order of first
	// mention; a two-token name wins over a one-token one.
	Entities []Entity
	// Topics are the coarse semantic categories scored by their cue words,
	// best first (ties by name); nil for a text with no cue word.
	Topics []TopicScore
	// Sentiment is (pos − neg) / (pos + neg) over the sentiment lexicons, in
	// [-1, 1]; 0 for neutral text.
	Sentiment float64

	people []Entity // the persons among Entities, recorded by Annotate
}

// People returns the person entities in the result. Annotate records them
// once, so this does not allocate: the slice is shared (Entities itself,
// capped, when every entity is a person) and must be treated as read-only.
func (r *Result) People() []Entity {
	if len(r.people) == 0 {
		return People(r.Entities) // a Result not built by Annotate, or one with no persons
	}
	return r.people
}

// TopTopic returns the best coarse category, or "".
func (r *Result) TopTopic() string {
	if len(r.Topics) == 0 {
		return ""
	}
	return r.Topics[0].Topic
}

// Server bundles the NLP models behind the model-server interface that the
// NLPLabelingFunction template launches on each compute node (§5.1). It
// tracks launch state and call counts so tests can assert the template's
// lifecycle, and can simulate per-call latency to model the expense that
// makes these models non-servable.
type Server struct {
	ner *NER

	// CallLatency, if nonzero, is slept on every Annotate call.
	CallLatency time.Duration

	launched atomic.Bool
	calls    atomic.Int64
}

// NewServer builds a server with the given NER miss rate and seed.
func NewServer(missRate float64, seed int64) *Server {
	return &Server{ner: NewNER(missRate, seed)}
}

// ErrNotLaunched is returned by Annotate before Launch (or after Stop).
var ErrNotLaunched = errors.New("nlp: model server not launched")

// Launch starts the server. The MapReduce task Setup hook calls this once
// per compute node.
func (s *Server) Launch() error {
	if !s.launched.CompareAndSwap(false, true) {
		return errors.New("nlp: model server already launched")
	}
	return nil
}

// Stop shuts the server down; Teardown calls this.
func (s *Server) Stop() { s.launched.Store(false) }

// Launched reports whether the server is running.
func (s *Server) Launched() bool { return s.launched.Load() }

// Calls returns the number of Annotate calls served.
//
//drybellvet:testapi — lf and pkg/drybell/lf tests count model-server calls with it
func (s *Server) Calls() int64 { return s.calls.Load() }

// Annotate runs all models over the text in one token pass (see annotate) and
// records the persons among the entities for People.
func (s *Server) Annotate(text string) (*Result, error) {
	if !s.Launched() {
		return nil, ErrNotLaunched
	}
	if s.CallLatency > 0 {
		time.Sleep(s.CallLatency)
	}
	s.calls.Add(1)
	return annotate(text, s.ner), nil
}

// lexEntry is everything the models know about one normalized word.
type lexEntry struct {
	names     []gazName // gazetteer names whose first token is the word, in gazetteer order
	topics    []uint8   // indices into AllTopics of the topics the word cues
	sentiment [2]int    // {1, 0} for a positive sentiment word, {0, 1} for a negative one
}

// gazName is one gazetteer name of one or two tokens.
type gazName struct {
	name   string    // the full normalized name, as emitted
	second *lexEntry // the entry of its second token; nil for a one-token name
	typ    EntityType
}

// lexicon holds every word the models know, each with its one entry, so a
// token is a name's second token exactly when its entry is the name's second.
// It is a dense trie over 'a'-'z' (every word is made of them) that
// scanner.next walks as it reads a token: node n's edge on a byte of trie
// symbol b (see byteClass) is next[n<<lexShift|b]. Node 0 is dead: symbol 0
// leads there and nothing leads out. Built once per process, immutable after;
// lock-free reads are safe.
var lexicon = func() (lex struct {
	next    []uint16
	entries []*lexEntry // entries[n]: the entry of the word ending at node n, or nil
}) {
	lex.next, lex.entries = make([]uint16, 2<<lexShift), make([]*lexEntry, 2)
	entry := func(w string) *lexEntry {
		n := lexRoot
		for i := range len(w) {
			e := n<<lexShift | int(byteClass[w[i]]&lexSymbol)
			if e&lexSymbol == 0 {
				panic("nlp: lexicon word " + w + " is not made of 'a'-'z'")
			}
			if lex.next[e] == 0 {
				lex.next[e] = uint16(len(lex.entries))
				lex.next, lex.entries = append(lex.next, make([]uint16, 1<<lexShift)...), append(lex.entries, nil)
			}
			n = int(lex.next[e])
		}
		if lex.entries[n] == nil {
			lex.entries[n] = new(lexEntry)
		}
		return lex.entries[n]
	}
	gazetteers := [...][][]string{EntityPerson: {CelebrityNames, OtherPersonNames}, EntityOrg: {OrgNames}, EntityPlace: {PlaceNames}}
	for typ, lists := range gazetteers {
		for _, name := range slices.Concat(lists...) {
			first, second, _ := strings.Cut(name, " ")
			n := gazName{name: name, typ: EntityType(typ)}
			if second != "" {
				n.second = entry(second)
			}
			entry(first).names = append(entry(first).names, n)
		}
	}
	for t, topic := range AllTopics {
		for _, w := range TopicVocab[topic] {
			entry(w).topics = append(entry(w).topics, uint8(t))
		}
	}
	for s, words := range [...][]string{positiveWords, negativeWords} {
		for _, w := range words {
			entry(w).sentiment[s] = 1
		}
	}
	return lex
}()

// name returns the gazetteer name beginning at a token with entry e when the
// next token's entry is next (either nil if unknown or absent): the first
// two-token name next completes, else the first one-token name, else nil.
func (e *lexEntry) name(next *lexEntry) *gazName {
	var one *gazName
	for k := 0; e != nil && k < len(e.names); k++ {
		n := &e.names[k]
		if n.second == next { // with next nil, the first one-token name; no pair can match
			return n
		}
		if n.second == nil && one == nil {
			one = n
		}
	}
	return one
}

// annotate is the one pass behind every model: it reads each token's lexicon
// entry off the trie node the scanner walked to (a token with a non-ASCII rune
// is lower-cased rune by rune and looked up), builds no token slice, and
// resolves the name beginning at a token once the next token's entry is known
// (the lookahead a two-token name needs).
func annotate(text string, ner *NER) *Result {
	var (
		sc              = scanner{text: text, lex: true}
		low             = make([]byte, 0, 64)  // the lower-cased token, when it is not plain
		ents            = make([]Entity, 0, 8) // copied out once, at its final length
		prev            *lexEntry              // the previous token's entry
		counts          [len(AllTopics)]int
		total, pos, neg int
		doc             uint64 // FNV-1a of seed ‖ text ‖ 0, hashed at the first mention
	)
	for {
		tok := sc.next()
		if !sc.ascii {
			low = low[:0] // tok lower-cased as strings.ToLower would, rune by rune
			for _, r := range tok {
				low = utf8.AppendRune(low, unicode.ToLower(r))
			}
			sc.node = lexRoot
			for _, c := range low {
				sc.node = lexicon.next[int(sc.node)<<lexShift|int(byteClass[c]&lexSymbol)]
			}
		}
		e := lexicon.entries[sc.node]
		if e != nil {
			for _, t := range e.topics {
				counts[t]++
			}
			total, pos, neg = total+len(e.topics), pos+e.sentiment[0], neg+e.sentiment[1]
		}
		if n := prev.name(e); n != nil && !ContainsName(ents, n.name) && !ner.missed(&doc, text, n.name) {
			ents = append(ents, Entity{Text: n.name, Type: n.typ, Confidence: 0.9})
		}
		if tok == "" {
			break
		}
		prev = e
	}

	res := new(Result)
	if len(ents) > 0 {
		res.Entities = append(make([]Entity, 0, len(ents)), ents...)
		res.people = res.Entities
		if slices.ContainsFunc(ents, func(e Entity) bool { return e.Type != EntityPerson }) {
			res.people = People(ents)
		}
	}
	if pos+neg > 0 {
		res.Sentiment = float64(pos-neg) / float64(pos+neg)
	}
	if total == 0 {
		return res
	}
	out := make([]TopicScore, 0, len(AllTopics))
	for t, c := range counts {
		if c > 0 {
			out = append(out, TopicScore{Topic: AllTopics[t], Score: float64(c) / float64(total)})
		}
	}
	// By descending score, then topic name: a total order since names are unique.
	slices.SortFunc(out, func(a, b TopicScore) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), strings.Compare(a.Topic, b.Topic))
	})
	res.Topics = slices.Clone(out)
	return res
}
