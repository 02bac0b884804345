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
// The models share one lexicon, built once per process as a dense trie over
// the letters of its words, and run in one token pass (Server.Annotate): the
// token scanner walks the trie as it reads each token, so a token is looked
// up without building a string or hashing it, and no token slice is built.
package nlp

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// scanner steps through the tokens of a text: maximal runs of letters, digits
// and '_'. Everything else — punctuation, whitespace, invalid UTF-8 —
// separates tokens. With lex set (Annotate's scan) it walks the lexicon's trie
// as it reads a token, so a token is looked up without a string or a hash. It
// allocates nothing; AppendWords and Annotate both stand on it.
type scanner struct {
	text  string
	lex   bool   // walk the lexicon trie; AppendWords, which needs no lookup, does not pay for it
	i     int    // byte offset where the search for the next token starts
	plain bool   // the last token is made only of 'a'-'z', '0'-'9' and '_': its own lower-cased form
	ascii bool   // the last token is ASCII, so node is its lower-cased form's
	node  uint16 // the lexicon trie node the last token's bytes lead to
}

// next returns the next token, or "" once the text is exhausted.
func (s *scanner) next() string {
	text, i := s.text, s.i
	for i < len(text) { // skip to the token's first byte
		if c := text[i]; c < utf8.RuneSelf {
			if byteClass[c] != 0 {
				break
			}
			i++
		} else if inToken, size := runeClass(text[i:]); inToken {
			break
		} else {
			i += size
		}
	}
	start, node, plain, ascii := i, uint16(lexRoot), true, true
	for i < len(text) {
		if c := text[i]; c < utf8.RuneSelf {
			class := byteClass[c]
			if class == 0 {
				break
			}
			plain = plain && class&upper == 0
			if s.lex {
				node = lexicon.next[int(node)<<lexShift|int(class&lexSymbol)]
			}
			i++
		} else if inToken, size := runeClass(text[i:]); inToken {
			plain, ascii = false, false
			i += size
		} else {
			break
		}
	}
	s.i, s.plain, s.ascii, s.node = i, plain, ascii, node
	return text[start:i]
}

// runeClass decodes the rune text starts with, reporting whether it belongs
// to a token (a letter or a digit) and its size.
func runeClass(text string) (inToken bool, size int) {
	r, size := utf8.DecodeRuneInString(text)
	return unicode.IsLetter(r) || unicode.IsDigit(r), size
}

// byteClass is 0 for an ASCII separator and for a byte from utf8.RuneSelf up
// (whose rune next decodes); else inToken, plus upper for 'A'-'Z', plus a
// letter's lexicon trie symbol: 1-26 for 'a'-'z', and for 'A'-'Z' folded onto
// them as ASCII lower-casing does.
var byteClass = func() (c [256]uint8) {
	for b := range 128 {
		switch {
		case 'a' <= b && b <= 'z':
			c[b] = inToken | uint8(b-'a'+1)
		case 'A' <= b && b <= 'Z':
			c[b] = inToken | upper | uint8(b-'A'+1)
		case '0' <= b && b <= '9', b == '_':
			c[b] = inToken
		}
	}
	return c
}()

const (
	lexShift  = 5 // 26 letters and symbol 0 fit in 32 edges, so a trie node's edges are one cache line
	lexSymbol = 1<<lexShift - 1
	inToken   = 1 << lexShift
	upper     = inToken << 1
	lexRoot   = 1 // the lexicon trie's root node; node 0 is dead
)

// AppendWords appends the tokens of text (maximal runs of letters, digits and
// '_'), lower-cased, to words and returns it; a caller tokenizing several
// fields of a record appends them into one token stream. A plain token (most
// of any corpus) is a substring of text, not a copy; only one with an
// upper-case or non-ASCII rune goes through strings.ToLower.
func AppendWords(words []string, text string) []string {
	sc := scanner{text: text}
	for tok := sc.next(); tok != ""; tok = sc.next() {
		if !sc.plain {
			tok = strings.ToLower(tok)
		}
		words = append(words, tok)
	}
	return words
}
