package lf

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/dfs"
)

// FuzzVoteBlocks: whatever values a vote job's tasks return — raw splits into
// tasks at '|' and a task's output into values at ';', so a task may return
// no value or a shard in several — the assembly either refuses them with an
// error or accepts them as vote shards, never panicking: bad magic, short
// blocks, values that are not whole rows, rows that break the round-robin
// layout and bad vote bytes are all errors. An accepted set, published as the
// executor publishes it, reads back through ReadVotes to the matrix the
// assembly built.
func FuzzVoteBlocks(f *testing.F) {
	magic := string(votesMagic[:])
	for _, seed := range []struct {
		n   uint8
		raw string
	}{
		{1, magic + "\x01\x00\xff\x01|" + magic + "\x00\x00"}, // 3 rows of 2 votes over 2 tasks
		{1, magic + "\x01\x00|" + magic},                      // an empty shard
		{0, magic + "\x01|" + magic + "\xff|" + magic + "\x00"},
		{2, magic + "\x01\x00\xff"},
		{1, "DBV1\x01\x00|" + magic},                           // bad magic
		{1, magic[:2]},                                         // short block
		{1, magic + "\x01\x00\xff|" + magic},                   // not whole rows
		{1, magic + "\x01\x05|" + magic},                       // bad vote byte
		{1, magic + "|" + magic + "\x01\x00"},                  // rows in the wrong task
		{1, magic + "\x01\x00;\xff\x01|" + magic + "\x00\x00"}, // a shard in two values
		{1, magic + "\x01\x00;\xff|" + magic},                  // a later value not whole rows
		{1, magic + "\x01\x00;" + magic},                       // a later value's magic is bad votes
		{1, "\x01\x00;\xff\x01|\x00\x00"},                      // one row per value, no magic
		{1, ""},
	} {
		f.Add(seed.n, []byte(seed.raw))
	}
	f.Fuzz(func(t *testing.T, n uint8, raw []byte) {
		names := []string{"a", "b", "c"}[:1+int(n)%3]
		var outputs [][][]byte
		for _, task := range bytes.Split(raw, []byte{'|'}) {
			var vals [][]byte
			if len(task) > 0 {
				vals = bytes.Split(task, []byte{';'})
			}
			outputs = append(outputs, vals)
		}
		mx, set, err := assembleVotes(context.Background(), outputs, names, 2)
		if err != nil {
			return
		}
		fs := dfs.NewMem()
		if _, err := set.publish(fs, storeBase); err != nil {
			t.Fatalf("publishing an accepted set: %v", err)
		}
		got, stored, err := ReadVotes(fs, storeBase, nil)
		if err != nil {
			t.Fatalf("reading back an accepted set: %v", err)
		}
		if len(stored) != len(names) {
			t.Fatalf("read back columns %v, want %v", stored, names)
		}
		sameMatrix(t, "read back", got, mx)
	})
}
