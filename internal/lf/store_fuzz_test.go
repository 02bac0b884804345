package lf

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"testing"

	"repro/internal/dfs"
	"repro/internal/labelmodel"
)

// fuzzNames are the columns of the fuzzed store.
var fuzzNames = []string{"a", "b"}

// fuzzStore writes the store FuzzVoteStore damages — a six-row flat artifact
// in two shards and one generation appending three rows in two shards — and
// returns it with the view carried before the generation and the one after.
func fuzzStore() (*dfs.Mem, *View, *View, error) {
	votes := func(m, seed int) *labelmodel.Matrix {
		mx := labelmodel.NewMatrix(m, len(fuzzNames))
		for i := 0; i < m; i++ {
			for j := range fuzzNames {
				mx.Set(i, j, labelmodel.Label((i+j+seed)%3-1))
			}
		}
		return mx
	}
	fs := dfs.NewMem()
	if err := WriteVotes(fs, storeBase, votes(6, 0), fuzzNames, 2); err != nil {
		return nil, nil, nil, err
	}
	flat, _, err := LoadView(fs, storeBase, fuzzNames, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	meta := GenerationMeta{Gen: 1, Names: fuzzNames, StartRow: 6, Shards: 2}
	if err := WriteGeneration(fs, storeBase, meta, votes(3, 1)); err != nil {
		return nil, nil, nil, err
	}
	whole, _, err := LoadView(fs, storeBase, fuzzNames, flat)
	return fs, flat, whole, err
}

// fuzzTargets are the files of the fuzzed store whose bytes the fuzzer
// replaces: both sidecars, a shard of each segment, and the manifest.
var fuzzTargets = []string{
	votesMetaPath(storeBase),
	dfs.ShardPath(storeBase, 1, 2),
	genManifestPath(storeBase, 1),
	votesMetaPath(genDataBase(storeBase, 1)),
	dfs.ShardPath(genDataBase(storeBase, 1), 0, 2),
}

// FuzzVoteStore: whatever bytes stand in one file of the vote store, every
// read of it — VerifyVotes, LoadMatrix, and LoadView without a view, with one
// carried from before the generation and with one carried from after it —
// returns an error or a view of the live rows, and never crashes: no panic,
// and no allocation sized from a claim the stored bytes cannot back (a
// votes.meta claiming 2^40 rows used to end the process out of memory). With
// seal set, the checksum guarding the replaced bytes (a manifest's CRC, a
// shard's payload CRC) is recomputed, so the fuzzer reaches the checks behind
// it.
func FuzzVoteStore(f *testing.F) {
	fs, _, _, err := fuzzStore()
	if err != nil {
		f.Fatal(err)
	}
	for i, key := range fuzzTargets {
		raw, err := fs.ReadFile(key)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), false, raw)
		f.Add(uint8(i), true, raw[:len(raw)/2])
	}
	for _, meta := range []votesMeta{
		{Names: fuzzNames, Examples: 1 << 40, Shards: 2},
		{Names: fuzzNames, Examples: 7, Shards: 2},
		{Names: []string{"b", "a", "a"}, Examples: 6, Shards: 2},
	} {
		raw, _ := json.Marshal(meta)
		f.Add(uint8(0), false, raw)
		f.Add(uint8(3), false, raw)
	}

	f.Fuzz(func(t *testing.T, target uint8, seal bool, data []byte) {
		fs, flat, whole, err := fuzzStore()
		if err != nil {
			t.Fatal(err)
		}
		key := fuzzTargets[int(target)%len(fuzzTargets)]
		if seal {
			data = sealed(key, data)
		}
		if err := fs.WriteFile(key, data); err != nil {
			t.Fatal(err)
		}

		if names, err := VerifyVotes(fs, storeBase); err == nil && len(names) == 0 {
			t.Fatal("VerifyVotes passed a store with no columns")
		}
		exec := &Executor[struct{}]{FS: fs, OutputPrefix: "labels"}
		if mx, err := exec.LoadMatrix(fuzzNames); err == nil && (mx.NumExamples() == 0 || mx.NumFuncs() != len(fuzzNames)) {
			t.Fatalf("LoadMatrix read a %d×%d view", mx.NumExamples(), mx.NumFuncs())
		}
		for _, prev := range []*View{nil, flat, whole} {
			view, _, err := LoadView(fs, storeBase, fuzzNames, prev)
			if err == nil && (view.Matrix.NumExamples() == 0 || view.Matrix.NumFuncs() != len(fuzzNames)) {
				t.Fatalf("LoadView read a %d×%d view", view.Matrix.NumExamples(), view.Matrix.NumFuncs())
			}
		}
	})
}

// sealed re-seals data as the file at key would be: a manifest's CRC over its
// JSON, a shard's CRC over its payload. Bytes that are neither stay as given.
func sealed(key string, data []byte) []byte {
	if _, _, _, shard := dfs.ParseShardPath(key); shard {
		if len(data) >= voteShardHeaderSize {
			data = append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(data[12:16], crc32.ChecksumIEEE(data[voteShardHeaderSize:]))
		}
		return data
	}
	if key != genManifestPath(storeBase, 1) {
		return data
	}
	var meta GenerationMeta
	if json.Unmarshal(data, &meta) != nil {
		return data
	}
	var err error
	if meta.CRC, err = manifestCRC(meta); err != nil {
		return data
	}
	raw, err := json.Marshal(meta)
	if err != nil {
		return data
	}
	return raw
}
