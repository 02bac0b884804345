package lf

import (
	"encoding/json"
	"hash/crc32"
	"path"
	"testing"

	"repro/internal/dfs"
	"repro/internal/labelmodel"
)

// fuzzNames are the columns of the fuzzed store.
var fuzzNames = []string{"a", "b"}

// fuzzStore writes the store FuzzVoteStore damages — a six-row flat artifact
// in two shards, two generation-0 segments over its rows (a re-run of "b" in
// three shards, then of "a" in one), one delta generation appending three
// rows in two shards and a deletions-only generation tombstoning row 2 — and
// returns it with the view carried before the delta and the one after it
// (before the deletions), and the files whose bytes the fuzzer replaces: the
// commit record and a shard of every set.
func fuzzStore() (*dfs.Mem, *View, *View, []string, error) {
	votes := func(m, n, seed int) *labelmodel.Matrix {
		mx := labelmodel.NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				mx.Set(i, j, labelmodel.Label((i+j+seed)%3-1))
			}
		}
		return mx
	}
	fs := dfs.NewMem()
	if err := WriteVotes(fs, storeBase, votes(6, 2, 0), fuzzNames, 2); err != nil {
		return nil, nil, nil, nil, err
	}
	targets := []string{dfs.RecordPath(storeBase), dfs.ShardPath(storeBase, 1, 2)}
	for _, seg := range []struct{ name, shards, seed int }{{1, 3, 2}, {0, 1, 1}} {
		k, err := publishSegment(fs, storeBase, matrixSet(votes(6, 1, seg.seed), seg.shards, dfs.Record{Names: fuzzNames[seg.name : seg.name+1]}))
		if err != nil {
			return nil, nil, nil, nil, err
		}
		targets = append(targets, dfs.RecordPath(k.path(storeBase)), dfs.ShardPath(k.path(storeBase), 0, seg.shards))
	}
	before, _, err := LoadView(fs, storeBase, fuzzNames, nil)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if err := publishGeneration(fs, storeBase, 1, matrixSet(votes(3, 2, 1), 2, dfs.Record{Names: fuzzNames, StartRow: 6})); err != nil {
		return nil, nil, nil, nil, err
	}
	after, _, err := LoadView(fs, storeBase, fuzzNames, before)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if err := publishGeneration(fs, storeBase, 2, matrixSet(nil, 1, dfs.Record{Names: fuzzNames, StartRow: 9, Deleted: []int{2}})); err != nil {
		return nil, nil, nil, nil, err
	}
	for gen := 1; gen <= 2; gen++ {
		targets = append(targets, dfs.RecordPath(genBase(storeBase, gen)), dfs.ShardPath(genBase(storeBase, gen), 0, 3-gen))
	}
	return fs, before, after, targets, nil
}

// FuzzVoteStore: whatever bytes stand in one file of the vote store, and
// whatever key a generation-0 segment's record stands under, every read of it
// — VerifyVotes, LoadMatrix, and LoadView without a view, with one carried
// from before the delta and with one carried from after it — returns an error
// or a view of the live rows, and never crashes: no panic, and no allocation
// sized from a claim the stored bytes cannot back (a record claiming 2^40
// rows used to end the process out of memory). A target past the file list
// moves the first segment's record to the key the bytes spell, so key parsing
// and chain ordering are fuzzed too. With seal set, the checksum guarding the
// replaced bytes (a commit record's CRC over its JSON, a shard's payload CRC
// in its record) is recomputed, so the fuzzer reaches the checks behind it.
func FuzzVoteStore(f *testing.F) {
	fs, _, _, targets, err := fuzzStore()
	if err != nil {
		f.Fatal(err)
	}
	for i, key := range targets {
		raw, err := fs.ReadFile(key)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), false, raw)
		f.Add(uint8(i), true, raw[:len(raw)/2])
	}
	const huge = 1 << 40
	for _, rec := range []dfs.Record{
		{Names: fuzzNames, Rows: huge, Shards: []dfs.ShardSum{{Size: 8}, {Size: 8}}},
		{Names: fuzzNames, Rows: huge, Shards: []dfs.ShardSum{{Size: voteShardHeaderSize + huge}, {Size: voteShardHeaderSize + huge}}},
		{Names: fuzzNames, Rows: 7, Shards: []dfs.ShardSum{{Size: 12}, {Size: 10}}},
		{Names: []string{"b", "a", "a"}, Rows: 6, Shards: []dfs.ShardSum{{Size: 13}, {Size: 13}}},
	} {
		raw, _ := json.Marshal(rec.Sealed())
		for _, target := range []uint8{0, 2, 6} {
			f.Add(target, true, raw)
		}
	}
	// Row ranges and tombstones out of the chain's reach, on the flat
	// artifact, the delta and the deletions-only generation, shards intact.
	for _, target := range []uint8{0, 6, 8} {
		var rec dfs.Record
		if _, err := dfs.ReadJSON(fs, targets[target], &rec); err != nil {
			f.Fatal(err)
		}
		for _, edit := range []func(*dfs.Record){
			func(r *dfs.Record) { r.StartRow = -1 },
			func(r *dfs.Record) { r.StartRow = 10 },
			func(r *dfs.Record) { r.StartRow = huge },
			func(r *dfs.Record) { r.Deleted = []int{-1} },
			func(r *dfs.Record) { r.Deleted = []int{9} },
			func(r *dfs.Record) { r.Deleted = []int{huge} },
		} {
			r := rec
			edit(&r)
			body, _ := json.Marshal(r)
			f.Add(target, true, body)
		}
	}
	first := path.Base(targets[2])
	for _, key := range []string{first, "00000-00003" + first[11:], "00000-00001-0000000000000001.commit", "00002.commit",
		"00000-00001-0000000000000001", "00002", "00000-1-1", first + ".tmp"} {
		f.Add(uint8(len(targets)), false, []byte(key))
	}

	f.Fuzz(func(t *testing.T, target uint8, seal bool, data []byte) {
		fs, before, after, targets, err := fuzzStore()
		if err != nil {
			t.Fatal(err)
		}
		if i := int(target) % (len(targets) + 1); i < len(targets) {
			key := targets[i]
			if seal {
				data = sealed(fs, key, data)
			}
			if err := fs.WriteFile(key, data); err != nil {
				t.Fatal(err)
			}
		} else if err := fs.Rename(targets[2], path.Join(genDir(storeBase), string(data))); err != nil {
			return // not a key the filesystem takes
		}

		if names, err := VerifyVotes(fs, storeBase); err == nil && len(names) == 0 {
			t.Fatal("VerifyVotes passed a store with no columns")
		}
		exec := &Executor[struct{}]{FS: fs, OutputPrefix: "labels"}
		if mx, err := exec.LoadMatrix(fuzzNames); err == nil && (mx.NumExamples() == 0 || mx.NumFuncs() != len(fuzzNames)) {
			t.Fatalf("LoadMatrix read a %d×%d view", mx.NumExamples(), mx.NumFuncs())
		}
		for _, prev := range []*View{nil, before, after} {
			view, _, err := LoadView(fs, storeBase, fuzzNames, prev)
			if err == nil && (view.Matrix.NumExamples() == 0 || view.Matrix.NumFuncs() != len(fuzzNames)) {
				t.Fatalf("LoadView read a %d×%d view", view.Matrix.NumExamples(), view.Matrix.NumFuncs())
			}
		}
	})
}

// sealed re-seals data as the file at key on fs would be: a shard's payload
// CRC as its digest in its set's commit record; anything else, a commit
// record, as the body of a checksummed JSON file. Bytes that are not JSON
// stay as given.
func sealed(fs *dfs.Mem, key string, data []byte) []byte {
	if base, s, _, shard := dfs.ParseShardPath(key); shard {
		if rec, err := dfs.ReadRecord(fs, base); err == nil && len(data) >= voteShardHeaderSize {
			rec.Shards[s].Digest = crc32.ChecksumIEEE(data[voteShardHeaderSize:])
			_, _ = dfs.WriteRecord(fs, base, *rec)
		}
		return data
	}
	if !json.Valid(data) {
		return data
	}
	scratch := dfs.NewMem()
	if _, err := dfs.WriteJSON(scratch, "sealed", json.RawMessage(data)); err != nil {
		return data
	}
	raw, _ := scratch.ReadFile("sealed")
	return raw
}
