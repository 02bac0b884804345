package labelmodel

import "fmt"

// This file holds the checked vote encoders, EncodeVotes and
// VoteCounts.PutColumn: the only places a Label may legally become a
// persisted byte. Vote shards and checkpointed map output store one byte per
// vote and readers reject anything outside {-1, 0, +1}, so an unchecked
// byte(label) cast elsewhere can truncate a corrupt value into a different
// legal-looking vote and ship it silently. The drybellvet voteenc analyzer
// flags every raw conversion from Label to an integer type; the casts below
// carry its //drybellvet:rawvote allowlist marker because they sit behind
// the checks.

// EncodeVotes fills dst with the canonical vote bytes of row, validating
// every element: one branch-free table pass over the row, with the error
// path rescanning only when a bad vote was seen.
func EncodeVotes(dst []byte, row []Label) error {
	if len(dst) != len(row) {
		return fmt.Errorf("labelmodel: EncodeVotes into %d bytes for %d votes", len(dst), len(row))
	}
	var bad uint64
	for j, v := range row {
		b := byte(v) //drybellvet:rawvote — validated via the table's sentinel bit below
		bad |= voteCode[b]
		dst[j] = b
	}
	if bad&voteBad != 0 {
		for j, v := range row {
			if !v.Valid() {
				return fmt.Errorf("labelmodel: invalid vote %d at column %d (want -1, 0, or +1)", v, j)
			}
		}
	}
	return nil
}

// VoteCounts is one column's vote histogram.
type VoteCounts struct{ Abstains, Positives, Negatives int64 }

// PutColumn is the checked encoder for one column of a row-major vote
// buffer: it writes votes[i]'s canonical byte to dst[i*stride+col] and counts
// it, one table lookup per vote. It returns the index of the first vote that
// is not legal, counting nothing, or -1 when every one is.
func (c *VoteCounts) PutColumn(dst []byte, stride, col int, votes []Label) int {
	var voted, neg uint64
	for i, v := range votes {
		b := byte(v) //drybellvet:rawvote — stored only after the table check
		code := voteCode[b]
		if code&voteBad != 0 {
			return i
		}
		voted += code & 1 // the positive and negative codes are odd
		neg += code >> 1
		dst[i*stride+col] = b
	}
	c.Abstains += int64(len(votes)) - int64(voted)
	c.Positives += int64(voted - neg)
	c.Negatives += int64(neg)
	return -1
}

// DecodeVotes is EncodeVotes read backwards: it fills dst with the votes the
// stored bytes src spell, in one table pass, and reports the index of the
// first byte that is not a legal vote, or -1 when every one is.
func DecodeVotes(dst []Label, src []byte) int {
	var bad uint64
	dst = dst[:len(src)]
	for j, b := range src {
		bad |= voteCode[b]
		dst[j] = Label(b)
	}
	if bad&voteBad != 0 {
		for j, b := range src {
			if voteCode[b]&voteBad != 0 {
				return j
			}
		}
	}
	return -1
}
