// Package corpus generates the synthetic benchmark workloads standing in for
// the Google production data of the paper's three case studies (§3, §6):
// topic classification (celebrity content), product classification (bicycles
// including accessories and parts, across ten languages), and real-time
// event classification.
//
// Each generator plants ground truth and emits signals consumed by two
// different consumers with an asymmetry that drives every experiment shape:
//
//   - labeling functions read rich, non-servable signals (NER-detectable
//     person names, coarse topic vocabulary, knowledge-graph keywords,
//     crawler aggregates) that are accurate but unavailable in production;
//   - the servable feature set (hashed text n-grams, or real-time event
//     vectors) is noisier but cheap, and includes "subtle" vocabulary no
//     labeling function covers, giving the discriminative model headroom to
//     generalize beyond the generative model (Table 2).
//
// A Document has two formats (codec.go): binary for staging (Document.Marshal
// writes what map tasks read) and JSON for the wire (MarshalDocuments writes a
// /v1/label request body). UnmarshalDocument reads both, so roots staged as
// JSON still run. An Event's record is binary; UnmarshalEvent also reads JSON.
package corpus

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/jsonenc"
)

// Document is one content example (topic and product tasks).
type Document struct {
	// ID is unique within a corpus.
	ID string `json:"id"`
	// Title and Body are the document text.
	Title string `json:"title"`
	Body  string `json:"body"`
	// URL is the linked URL (a servable signal; §3.1's URL-based heuristics).
	URL string `json:"url"`
	// Language is an ISO-ish code; the product corpus spans ten languages.
	Language string `json:"language"`
	// Gold is the planted label: true = in the class of interest. Hidden
	// from training; used only for evaluation and the hand-label baselines.
	Gold bool `json:"gold"`
	// Crawler holds non-servable aggregate statistics from the simulated web
	// crawler. Too slow/expensive to compute at serving time.
	Crawler CrawlerStats `json:"crawler"`

	// text is Title + " " + Body, with Title and Body its substrings, in a
	// decoded document; empty in one built any other way. See Text.
	text string
}

// CrawlerStats are offline aggregates about the document's source, the kind
// of signal §4 calls out as non-servable ("aggregate statistics, results of
// expensive crawlers").
type CrawlerStats struct {
	// EngagementScore is a normalized audience-engagement aggregate.
	EngagementScore float64 `json:"engagement"`
	// DomainAuthority is a source-quality aggregate in [0,1].
	DomainAuthority float64 `json:"authority"`
}

// Text returns title and body joined, the standard GetText for content LFs
// (mirrors the paper's StrCat(x.title, " ", x.body)). A decoded document was
// decoded with its text already joined, Title and Body its substrings; Text
// returns that join for as long as it still is Title + " " + Body — checked by
// lengths, the space and two comparisons, which are O(1) because comparing a
// string with itself returns at the shared pointer — so it neither allocates
// nor goes stale when Title or Body is reassigned. Any other document is
// joined anew on every call.
func (d *Document) Text() string {
	if t := len(d.Title); len(d.text) == t+1+len(d.Body) && d.text[t] == ' ' && d.text[:t] == d.Title && d.text[t+1:] == d.Body {
		return d.text
	}
	return d.Title + " " + d.Body
}

// Marshal encodes the document as a binary recordio payload (codec.go) in one
// allocation, refusing nil and NaN or ±Inf crawler stats. Strings keep their
// bytes exactly, invalid UTF-8 included, which JSON rewrites to U+FFFD.
func (d *Document) Marshal() ([]byte, error) {
	if d == nil {
		return nil, errors.New("corpus: encode document: nil document")
	}
	if !jsonenc.Finite(d.Crawler.EngagementScore, d.Crawler.DomainAuthority) {
		return nil, fmt.Errorf("corpus: encode document %q: unsupported value: %+v", d.ID, d.Crawler)
	}
	return marshalDocument(d), nil
}

// UnmarshalDocument decodes a recordio payload or a request body: a binary
// record Marshal wrote, or any other payload as JSON.
func UnmarshalDocument(data []byte) (*Document, error) {
	if len(data) > 0 && data[0] == docMagic {
		d, err := decodeDocument(data)
		if err != nil {
			return nil, fmt.Errorf("corpus: decode document: %w", err)
		}
		return d, nil
	}
	if d, ok := scanDocument(data); ok {
		return d, nil
	}
	return unmarshalDocumentJSON(data)
}

// unmarshalDocumentJSON is the JSON reference decoder, and the path of every
// payload that neither decodeDocument nor scanDocument takes.
func unmarshalDocumentJSON(data []byte) (*Document, error) {
	var d Document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("corpus: decode document: %w", err)
	}
	// Joined as the fast paths join, so every decoded document has its text.
	d.cut(d.Title+" "+d.Body+d.ID+d.URL+d.Language, len(d.Title), len(d.Body), len(d.ID), len(d.URL))
	return &d, nil
}

// MarshalDocuments encodes a batch in the wire format: one JSON request body
// per document, byte for byte what json.Marshal writes.
func MarshalDocuments(docs []*Document) ([][]byte, error) {
	out := make([][]byte, len(docs))
	for i, d := range docs {
		if d != nil && jsonenc.Finite(d.Crawler.EngagementScore, d.Crawler.DomainAuthority) {
			// One allocation, unless escapes outgrow the estimate.
			out[i] = appendDocument(make([]byte, 0, 160+len(d.ID)+len(d.Title)+len(d.Body)+len(d.URL)+len(d.Language)), d)
		} else if b, err := json.Marshal(d); err != nil {
			return nil, err
		} else {
			out[i] = b
		}
	}
	return out, nil
}

// GoldLabels extracts ±1 gold labels (+1 = positive class).
func GoldLabels(docs []*Document) []int {
	out := make([]int, len(docs))
	for i, d := range docs {
		if d.Gold {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// PositiveRate returns the fraction of gold-positive documents.
func PositiveRate(docs []*Document) float64 {
	if len(docs) == 0 {
		return 0
	}
	pos := 0
	for _, d := range docs {
		if d.Gold {
			pos++
		}
	}
	return float64(pos) / float64(len(docs))
}
