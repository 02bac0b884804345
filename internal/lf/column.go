package lf

import (
	"context"
	"math/bits"
	"slices"

	"repro/internal/nlp"
	lfapi "repro/pkg/drybell/lf"
)

// taskColumn is one map task's record of what its functions share on each row
// of its batch: the row's text, that text's annotation and its keyword hits.
// Functions vote one column at a time, in row order, filling the rows as they
// ask; row is the row being voted. A row answers only for its first asker's
// text, so another text, or a miscounted row, costs work, never a wrong vote.
// Nothing is looked up by text: a text on two rows is annotated twice, to the
// same bits (the annotator is a pure function of the text: NER misses hash
// seed ‖ text). Errors are not remembered.
type taskColumn[T any] struct {
	ann    nlp.Annotator  // the set's NLP service; nil when it has none
	union  *lfapi.Matcher // the set's keyword automaton; nil when it has none
	rows   []taskRow
	row    int
	pinned bool          // rowStepper holds row while its function votes
	voters []lfapi.LF[T] // what function j is voted through: a union rule's voter, or the task's instance
}

type taskRow struct {
	text    string
	res     *nlp.Result // nil until annotated
	hits    uint64      // valid once scanned
	scanned bool
}

// at returns the current row when it holds text or nothing yet (it then takes
// text), and nil otherwise; unless pinned, the column moves to the next row.
func (c *taskColumn[T]) at(text string) *taskRow {
	i := c.row
	if !c.pinned {
		c.row++
	}
	if i >= len(c.rows) {
		return nil
	}
	r := &c.rows[i]
	if r.res == nil && !r.scanned {
		r.text = text
	} else if r.text != text { // O(1) when both share a backing array, as a decoded Document's Text() does
		return nil
	}
	return r
}

// Annotate implements nlp.Annotator for the task's NLP functions.
func (c *taskColumn[T]) Annotate(text string) (*nlp.Result, error) {
	r := c.at(text)
	if r != nil && r.res != nil {
		return r.res, nil
	}
	res, err := c.ann.Annotate(text)
	if err == nil && r != nil {
		r.res = res
	}
	return res, err
}

// hits returns text's hits in the union automaton.
func (c *taskColumn[T]) hits(text string) uint64 {
	r := c.at(text)
	if r != nil && r.scanned {
		return r.hits
	}
	h := c.union.Hits(text)
	if r != nil {
		r.hits, r.scanned = h, true
	}
	return h
}

// rowStepper votes a function that reaches the column from inside (a
// combinator over NLP functions, which VoteAll votes one example at a time):
// every annotation it asks for an example reads that example's row.
type rowStepper[T any] struct {
	lfapi.LF[T]
	col *taskColumn[T]
}

func (s rowStepper[T]) Vote(ctx context.Context, x T) (lfapi.Label, error) {
	s.col.pinned = true
	v, err := s.LF.Vote(ctx, x)
	s.col.pinned, s.col.row = false, s.col.row+1
	return v, err
}

// keywordUnion compiles one automaton over the distinct words of a set's
// compiled Keywords rules, so that a task scans each row's text once for all
// of them; rules[j] maps the union's hits back to function j's own. A set with
// fewer than two rules, or more than 64 distinct words among them, gets none,
// and its rules scan alone.
func keywordUnion[T any](lfs []lfapi.LF[T]) (*lfapi.Matcher, []*unionRule[T]) {
	var rules []*unionRule[T] // allocated at the first rule: a set without one costs nothing per job
	var words []string
	n := 0
	//drybellvet:tightloop — bounded by the function set, once per job
	for j, f := range lfs {
		kf, _ := f.(*lfapi.Func[T])
		k, ok := kf.Keywords()
		if !ok {
			continue
		} else if rules == nil {
			rules = make([]*unionRule[T], len(lfs))
		}
		r := &unionRule[T]{Keywords: k}
		for b, w := range k.Words {
			i := slices.Index(words, w)
			if i < 0 {
				i, words = len(words), append(words, w)
			}
			if i < 64 {
				r.bit[i] = 1 << b
			}
		}
		rules[j], n = r, n+1
	}
	if n < 2 || len(words) > 64 {
		return nil, nil
	}
	m, err := lfapi.NewMatcher(words)
	if err != nil {
		return nil, nil // not reached: the words are distinct, non-empty (every rule compiled) and at most 64
	}
	return m, rules
}

type unionRule[T any] struct {
	lfapi.Keywords[T]
	bit [64]uint64 // bit[u]: the rule's hit bit for union word u; 0 for another rule's word
}

// voter is the rule's function over column c: it votes from c's union hits,
// mapped to the rule's own bits.
func (r *unionRule[T]) voter(c *taskColumn[T]) lfapi.LF[T] {
	return lfapi.New(r.Meta, func(x T) lfapi.Label {
		var hits uint64
		for u := c.hits(r.GetText(x)); u != 0; u &= u - 1 {
			hits |= r.bit[bits.TrailingZeros64(u)]
		}
		return r.Vote(x, hits)
	})
}
