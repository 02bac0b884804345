package lf_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/pkg/drybell/lf"
)

// containsMask is the reference hit mask: bit i when strings.Contains finds
// words[i] in text.
func containsMask(text string, words []string) uint64 {
	var hits uint64
	for i, w := range words {
		if strings.Contains(text, w) {
			hits |= 1 << i
		}
	}
	return hits
}

// TestKeywordsCompileRefuses: an empty word, a duplicate word, more than 64
// words and a missing slot each fail compilation with an error naming the
// function; 64 distinct words compile, and the last one votes.
func TestKeywordsCompileRefuses(t *testing.T) {
	id := func(s string) string { return s }
	abstain := func(string, uint64) lf.Label { return lf.Abstain }
	many := make([]string, 65)
	for i := range many {
		many[i] = fmt.Sprintf("w%d", i)
	}
	for _, k := range []lf.Keywords[string]{
		{Meta: lf.Meta{Name: "empty"}, GetText: id, Words: []string{"a", ""}, Vote: abstain},
		{Meta: lf.Meta{Name: "duplicate"}, GetText: id, Words: []string{"ab", "b", "ab"}, Vote: abstain},
		{Meta: lf.Meta{Name: "too_many"}, GetText: id, Words: many, Vote: abstain},
		{Meta: lf.Meta{Name: "no_text"}, Words: []string{"a"}, Vote: abstain},
		{Meta: lf.Meta{Name: "no_vote"}, GetText: id, Words: []string{"a"}},
	} {
		if _, err := k.Compile(); err == nil || !strings.Contains(err.Error(), k.Meta.Name) {
			t.Errorf("%s: error %v, want one naming the function", k.Meta.Name, err)
		}
	}
	f, err := lf.Keywords[string]{Meta: lf.Meta{Name: "w64"}, GetText: id, Words: many[:64], Vote: func(_ string, hits uint64) lf.Label {
		if hits>>63 != 0 {
			return lf.Positive
		}
		return lf.Abstain
	}}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := f.Vote(context.Background(), "xx w63 yy"); err != nil || v != lf.Positive {
		t.Errorf("64th word: vote %v, error %v; want Positive", v, err)
	}
}

// FuzzKeywords holds the automaton to strings.Contains: on arbitrary text and
// word lists — overlapping, prefixes of one another, invalid UTF-8 — the hit
// mask equals the reference bit for bit, and a list is refused exactly when
// it holds an empty or duplicate word or more than 64 words. packed holds the
// words separated by sep.
func FuzzKeywords(f *testing.F) {
	for _, seed := range []struct {
		text, packed string
		sep          byte
	}{
		{"she sells sea shells", "he,she,his,hers,sea shell,s", ','},
		{"aaaa", "a|aa|aaa|aaaaa", '|'},
		{"abcabd", "abd,bca,cab,bd,d", ','},
		{"\xff\xfe\x00caf\xc3\xa9", "\xfe\x00,\xc3,é,caf\xc3", ','},
		{"", "x", ','},
		{"dup dup", "dup,dup", ','},
		{"empty", "a,,b", ','},
	} {
		f.Add(seed.text, seed.packed, seed.sep)
	}
	f.Fuzz(func(t *testing.T, text, packed string, sep byte) {
		words := strings.Split(packed, string([]byte{sep}))
		refuse := len(words) > 64
		seen := map[string]bool{}
		for _, w := range words {
			refuse = refuse || w == "" || seen[w]
			seen[w] = true
		}
		m, err := lf.NewMatcher(words)
		if refuse != (err != nil) {
			t.Fatalf("words %q: error %v, want refusal %v", words, err, refuse)
		}
		if err != nil {
			return
		}
		if got, want := m.Hits(text), containsMask(text, words); got != want {
			t.Fatalf("text %q, words %q: hits %b, strings.Contains %b", text, words, got, want)
		}
	})
}
