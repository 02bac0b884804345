// Package nlp simulates Google's general-purpose natural language processing
// models (paper §5.1): a tokenizer, a named-entity recognizer, a coarse
// semantic-categorization ("topic") model, and a sentiment scorer, bundled
// behind a model server that labeling functions launch per compute node via
// the NLPLabelingFunction template.
//
// The models are gazetteer- and lexicon-based with controlled noise. What
// matters for the reproduction is their statistical role, not their NLP
// sophistication: they are broad-purpose, moderately accurate, expensive
// signals that are non-servable at inference time (too slow to run on all
// incoming content) but excellent weak supervision.
//
// The models share one word-keyed lexicon, built once per process, and run in
// one token pass (Server.Annotate) that probes it once per token and builds no
// token slice.
package nlp

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// scanner steps through the tokens of a text: maximal runs of letters, digits
// and '_'. Everything else — punctuation, whitespace, invalid UTF-8 —
// separates tokens. It allocates nothing; AppendWords and Annotate both stand on it.
type scanner struct {
	text string
	i    int // byte offset where the search for the next token starts
}

// next returns the next token and whether it is plain: made only of
// lower-case ASCII letters, digits and '_', so that it is its own lower-cased
// form. It returns "" once the text is exhausted.
func (s *scanner) next() (tok string, plain bool) {
	text, start := s.text, len(s.text) // start is len(text) while no token is open
	for i := s.i; i < len(text); {
		c, size := text[i], 1
		class := asciiClass[c]
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRuneInString(text[i:])
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				class = 2
			}
		}
		switch {
		case class != 0 && start == len(text):
			start, plain = i, class == 1
		case class != 0:
			plain = plain && class == 1
		case start < len(text):
			s.i = i + size
			return text[start:i], plain
		}
		i += size
	}
	s.i = len(text)
	return text[start:], plain
}

// asciiClass is 1 for 'a'-'z', '0'-'9' and '_', 2 for 'A'-'Z', and 0 for ASCII
// separators and bytes from utf8.RuneSelf up (whose runes next decodes).
var asciiClass = func() (c [256]uint8) {
	for b := range c {
		switch {
		case 'a' <= b && b <= 'z', '0' <= b && b <= '9', b == '_':
			c[b] = 1
		case 'A' <= b && b <= 'Z':
			c[b] = 2
		}
	}
	return c
}()

// AppendWords appends the tokens of text (maximal runs of letters, digits and
// '_'), lower-cased, to words and returns it; a caller tokenizing several
// fields of a record appends them into one token stream. A plain token (most
// of any corpus) is a substring of text, not a copy; only one with an
// upper-case or non-ASCII rune goes through strings.ToLower.
func AppendWords(words []string, text string) []string {
	sc := scanner{text: text}
	for tok, plain := sc.next(); tok != ""; tok, plain = sc.next() {
		if !plain {
			tok = strings.ToLower(tok)
		}
		words = append(words, tok)
	}
	return words
}
