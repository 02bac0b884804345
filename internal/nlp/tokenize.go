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
package nlp

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Words splits text into normalized word tokens: maximal runs of letters,
// digits and '_', lower-cased. Everything else — punctuation, whitespace,
// invalid UTF-8 — separates tokens and is dropped. It is the package's one
// tokenizer; every model consumes its output.
//
// A token made only of lower-case ASCII letters, digits and '_' (most of any
// corpus) is a substring of text, not a copy; only a token holding an
// upper-case or non-ASCII rune goes through strings.ToLower.
func Words(text string) []string {
	return AppendWords(make([]string, 0, len(text)/6+1), text)
}

// AppendWords appends the tokens of text to words and returns it: Words for a
// caller that brings the slice, such as one tokenizing several fields of a
// record into one token stream.
func AppendWords(words []string, text string) []string {
	start := -1    // byte offset of the open token, -1 between tokens
	plain := false // the open token needs no lower-casing so far
	flush := func(end int) {
		if tok := text[start:end]; plain {
			words = append(words, tok)
		} else {
			words = append(words, strings.ToLower(tok))
		}
		start = -1
	}
	for i := 0; i < len(text); {
		c, size := text[i], 1
		word, lower := false, false
		switch {
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9', c == '_':
			word, lower = true, true
		case 'A' <= c && c <= 'Z':
			word = true
		case c >= utf8.RuneSelf:
			var r rune
			r, size = utf8.DecodeRuneInString(text[i:])
			word = unicode.IsLetter(r) || unicode.IsDigit(r)
		}
		switch {
		case !word:
			if start >= 0 {
				flush(i)
			}
		case start < 0:
			start, plain = i, lower
		case !lower:
			plain = false
		}
		i += size
	}
	if start >= 0 {
		flush(len(text))
	}
	return words
}

// Bigrams returns adjacent token pairs joined by '_', used by the feature
// extractor and the topic model.
func Bigrams(words []string) []string {
	if len(words) < 2 {
		return nil
	}
	out := make([]string, 0, len(words)-1)
	for i := 0; i+1 < len(words); i++ {
		out = append(out, words[i]+"_"+words[i+1])
	}
	return out
}
