package lf

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"path"
	"slices"
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/labelmodel"
)

// genBase is the shard set base of delta generation gen; its commit record
// is dfs.RecordPath(genBase(base, gen)).
func genBase(base string, gen int) string { return chainKey{gen: gen}.path(base) }

// writeGen publishes a generation of m rows starting at startRow, with
// deterministic votes derived from the seed, and returns the matrix written.
func writeGen(t *testing.T, fs dfs.FS, base string, gen, startRow, m int, names []string, deleted []int, seed int64) *labelmodel.Matrix {
	t.Helper()
	mx := randomVotes(t, m, len(names), seed)
	if err := publishGeneration(fs, base, gen, matrixSet(mx, 3, dfs.Record{Names: names, StartRow: startRow, Deleted: deleted})); err != nil {
		t.Fatalf("publishGeneration(%d): %v", gen, err)
	}
	return mx
}

func TestGenerationAppendExtendsLegacyArtifact(t *testing.T) {
	fs := dfs.NewMem()
	names := []string{"a", "b", "c"}
	base := randomVotes(t, 50, 3, 1)
	if err := WriteVotes(fs, "labels/votes", base, names, 4); err != nil {
		t.Fatal(err)
	}
	delta := writeGen(t, fs, "labels/votes", 1, 50, 10, names, nil, 2)

	got, gotNames, err := readVotes(fs, "labels/votes", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumExamples() != 60 {
		t.Fatalf("view has %d rows, want 60", got.NumExamples())
	}
	if len(gotNames) != 3 || gotNames[0] != "a" {
		t.Fatalf("view names %v", gotNames)
	}
	for i := 0; i < 50; i++ {
		for j := 0; j < 3; j++ {
			if got.At(i, j) != base.At(i, j) {
				t.Fatalf("base row %d col %d: got %d want %d", i, j, got.At(i, j), base.At(i, j))
			}
		}
	}
	for i := 0; i < 10; i++ {
		for j := 0; j < 3; j++ {
			if got.At(50+i, j) != delta.At(i, j) {
				t.Fatalf("delta row %d col %d: got %d want %d", i, j, got.At(50+i, j), delta.At(i, j))
			}
		}
	}
}

// TestGenerationSupersedeOrder pins overlapping row-range semantics: when two
// generations cover the same rows, the later generation's votes win, in
// ascending generation order regardless of List ordering.
func TestGenerationSupersedeOrder(t *testing.T) {
	fs := dfs.NewMem()
	names := []string{"a", "b"}
	base := randomVotes(t, 20, 2, 3)
	if err := WriteVotes(fs, "labels/votes", base, names, 2); err != nil {
		t.Fatal(err)
	}
	// Gen 1 rewrites rows 5..14; gen 2 rewrites rows 10..17 on top of it.
	g1 := writeGen(t, fs, "labels/votes", 1, 5, 10, names, nil, 4)
	g2 := writeGen(t, fs, "labels/votes", 2, 10, 8, names, nil, 5)

	got, _, err := readVotes(fs, "labels/votes", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumExamples() != 20 {
		t.Fatalf("view has %d rows, want 20", got.NumExamples())
	}
	for i := 0; i < 20; i++ {
		for j := 0; j < 2; j++ {
			want := base.At(i, j)
			if i >= 5 && i < 15 {
				want = g1.At(i-5, j)
			}
			if i >= 10 && i < 18 {
				want = g2.At(i-10, j)
			}
			if got.At(i, j) != want {
				t.Fatalf("row %d col %d: got %d want %d", i, j, got.At(i, j), want)
			}
		}
	}
}

// TestGenerationTombstones pins deletion semantics: tombstoned rows are
// dropped from the view with subsequent rows shifted down, and a later
// generation that rewrites a tombstoned row resurrects it.
func TestGenerationTombstones(t *testing.T) {
	fs := dfs.NewMem()
	names := []string{"a", "b"}
	base := randomVotes(t, 10, 2, 6)
	if err := WriteVotes(fs, "labels/votes", base, names, 2); err != nil {
		t.Fatal(err)
	}
	// Gen 1 appends rows 10..12 and tombstones rows 3 and 7.
	g1 := writeGen(t, fs, "labels/votes", 1, 10, 3, names, []int{3, 7}, 7)

	got, _, err := readVotes(fs, "labels/votes", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumExamples() != 11 {
		t.Fatalf("view has %d rows after 2 tombstones, want 11", got.NumExamples())
	}
	// Surviving absolute rows in order: 0,1,2,4,5,6,8,9,10,11,12.
	survivors := []int{0, 1, 2, 4, 5, 6, 8, 9, 10, 11, 12}
	for vi, abs := range survivors {
		for j := 0; j < 2; j++ {
			var want labelmodel.Label
			if abs >= 10 {
				want = g1.At(abs-10, j)
			} else {
				want = base.At(abs, j)
			}
			if got.At(vi, j) != want {
				t.Fatalf("view row %d (abs %d) col %d: got %d want %d", vi, abs, j, got.At(vi, j), want)
			}
		}
	}

	// Gen 2 rewrites rows 7..8: the tombstone on row 7 is cleared.
	g2 := writeGen(t, fs, "labels/votes", 2, 7, 2, names, nil, 8)
	got, _, err = readVotes(fs, "labels/votes", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumExamples() != 12 {
		t.Fatalf("view has %d rows after resurrection, want 12", got.NumExamples())
	}
	// Row 3 is still gone; abs row 7 is back with gen-2 votes.
	if got.At(6, 0) != g2.At(0, 0) || got.At(6, 1) != g2.At(0, 1) {
		t.Fatalf("resurrected row 7 carries stale votes")
	}
}

// TestGenerationCorruptManifestRejected pins that a torn or tampered
// generation record — the generation's manifest — fails the read with a
// descriptive error instead of being skipped.
func TestGenerationCorruptManifestRejected(t *testing.T) {
	fs := dfs.NewMem()
	names := []string{"a", "b"}
	if err := WriteVotes(fs, "labels/votes", randomVotes(t, 10, 2, 9), names, 2); err != nil {
		t.Fatal(err)
	}
	writeGen(t, fs, "labels/votes", 1, 10, 4, names, nil, 10)

	key := "labels/votes/_gen/00001.commit"
	raw, err := fs.ReadFile(key)
	if err != nil {
		t.Fatal(err)
	}

	// Flipped payload byte: checksum mismatch.
	var meta dfs.Record
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	meta.StartRow = 2
	tampered, _ := json.Marshal(meta)
	if err := fs.WriteFile(key, tampered); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readVotes(fs, "labels/votes", true, nil); err == nil {
		t.Fatal("tampered manifest accepted")
	} else if !strings.Contains(err.Error(), "corrupt") || !strings.Contains(err.Error(), key) {
		t.Fatalf("tampered manifest error not descriptive: %v", err)
	}

	// Truncated JSON: parse failure, same contract.
	if err := fs.WriteFile(key, raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readVotes(fs, "labels/votes", true, nil); err == nil {
		t.Fatal("truncated manifest accepted")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("truncated manifest error not descriptive: %v", err)
	}

	// Restoring the original manifest heals the chain.
	if err := fs.WriteFile(key, raw); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readVotes(fs, "labels/votes", true, nil); err != nil {
		t.Fatalf("restored manifest still rejected: %v", err)
	}
}

// TestGenerationLegacyFallback pins that a filesystem carrying only the flat
// pre-versioning artifact reads through the chain reader unchanged.
func TestGenerationLegacyFallback(t *testing.T) {
	fs := dfs.NewMem()
	names := []string{"x", "y", "z"}
	mx := randomVotes(t, 30, 3, 11)
	if err := WriteVotes(fs, "labels/votes", mx, names, 4); err != nil {
		t.Fatal(err)
	}
	if HasGenerations(fs, "labels/votes") {
		t.Fatal("legacy artifact misdetected as versioned")
	}
	got, gotNames, err := readVotes(fs, "labels/votes", true, []string{"z", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumFuncs() != 2 || gotNames[0] != "z" {
		t.Fatalf("legacy column selection broken: %d cols, names %v", got.NumFuncs(), gotNames)
	}
	for i := 0; i < 30; i++ {
		if got.At(i, 0) != mx.At(i, 2) || got.At(i, 1) != mx.At(i, 0) {
			t.Fatalf("legacy fallback row %d mismatches", i)
		}
	}
}

// TestGenerationColumnUnion pins the column-union semantics: a generation
// introducing a new LF widens the view, with Abstain filled for rows the new
// column never voted on, and columns the generation lacks keeping older
// votes in its row range.
func TestGenerationColumnUnion(t *testing.T) {
	fs := dfs.NewMem()
	if err := WriteVotes(fs, "labels/votes", randomVotes(t, 8, 2, 12), []string{"a", "b"}, 2); err != nil {
		t.Fatal(err)
	}
	g1 := writeGen(t, fs, "labels/votes", 1, 8, 2, []string{"b", "c"}, nil, 13)

	got, gotNames, err := readVotes(fs, "labels/votes", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotNames) != 3 || gotNames[0] != "a" || gotNames[1] != "b" || gotNames[2] != "c" {
		t.Fatalf("union names %v", gotNames)
	}
	// Base rows never saw "c": Abstain.
	for i := 0; i < 8; i++ {
		if got.At(i, 2) != labelmodel.Abstain {
			t.Fatalf("base row %d col c = %d, want Abstain", i, got.At(i, 2))
		}
	}
	// Appended rows never saw "a": Abstain; "b" and "c" from the generation.
	for i := 0; i < 2; i++ {
		if got.At(8+i, 0) != labelmodel.Abstain {
			t.Fatalf("appended row %d col a = %d, want Abstain", i, got.At(8+i, 0))
		}
		if got.At(8+i, 1) != g1.At(i, 0) || got.At(8+i, 2) != g1.At(i, 1) {
			t.Fatalf("appended row %d generation columns mismatched", i)
		}
	}
}

// TestCompactGenerations pins the fold: compaction produces a flat artifact
// identical to writing the assembled view from scratch — including
// byte-identical shards, since a vote set holds nothing but its content —
// and removes the folded chain.
func TestCompactGenerations(t *testing.T) {
	fs := dfs.NewMem()
	names := []string{"a", "b", "c"}
	if err := WriteVotes(fs, "labels/votes", randomVotes(t, 40, 3, 14), names, 4); err != nil {
		t.Fatal(err)
	}
	writeGen(t, fs, "labels/votes", 1, 40, 6, names, []int{2}, 15)
	writeGen(t, fs, "labels/votes", 2, 46, 4, names, nil, 16)

	want, wantNames, err := readVotes(fs, "labels/votes", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompactView(fs, "labels/votes", 4, nil); err != nil {
		t.Fatal(err)
	}
	if HasGenerations(fs, "labels/votes") {
		t.Fatal("generations survived compaction")
	}
	if keys, err := fs.List("labels/votes/_gen/"); err == nil && len(keys) != 0 {
		t.Fatalf("generation files left behind: %v", keys)
	}
	got, gotNames, err := ReadVotes(fs, "labels/votes", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumExamples() != want.NumExamples() || len(gotNames) != len(wantNames) {
		t.Fatalf("compacted artifact %dx%d, want %dx%d",
			got.NumExamples(), got.NumFuncs(), want.NumExamples(), want.NumFuncs())
	}
	for i := 0; i < want.NumExamples(); i++ {
		for j := 0; j < want.NumFuncs(); j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("compacted vote [%d,%d] = %d, want %d", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}

	// Byte-identity with a from-scratch write of the same view.
	ref := dfs.NewMem()
	if err := WriteVotes(ref, "labels/votes", want, wantNames, 4); err != nil {
		t.Fatal(err)
	}
	refKeys, err := ref.List("labels/votes")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range refKeys {
		wantRaw, err := ref.ReadFile(key)
		if err != nil {
			t.Fatal(err)
		}
		gotRaw, err := fs.ReadFile(key)
		if err != nil {
			t.Fatalf("compacted store missing %s: %v", key, err)
		}
		if string(gotRaw) != string(wantRaw) {
			t.Fatalf("compacted shard %s is not byte-identical to a from-scratch write", key)
		}
	}
}

// TestGenerationGapRejected pins contiguity: a generation starting beyond
// the rows covered so far is a staging bug and must be reported, not padded.
func TestGenerationGapRejected(t *testing.T) {
	fs := dfs.NewMem()
	names := []string{"a"}
	if err := WriteVotes(fs, "labels/votes", randomVotes(t, 5, 1, 17), names, 1); err != nil {
		t.Fatal(err)
	}
	writeGen(t, fs, "labels/votes", 1, 9, 2, names, nil, 18)
	if _, _, err := readVotes(fs, "labels/votes", true, nil); err == nil {
		t.Fatal("gapped generation accepted")
	} else if !strings.Contains(err.Error(), "starts at row") {
		t.Fatalf("gap error not descriptive: %v", err)
	}
}

func TestLatestGeneration(t *testing.T) {
	fs := dfs.NewMem()
	names := []string{"a"}
	if n, err := LatestGeneration(fs, "labels/votes"); err != nil || n != 0 {
		t.Fatalf("empty store: gen %d, err %v", n, err)
	}
	if err := WriteVotes(fs, "labels/votes", randomVotes(t, 5, 1, 19), names, 1); err != nil {
		t.Fatal(err)
	}
	if n, err := LatestGeneration(fs, "labels/votes"); err != nil || n != 0 {
		t.Fatalf("legacy-only store: gen %d, err %v", n, err)
	}
	writeGen(t, fs, "labels/votes", 1, 5, 2, names, nil, 20)
	writeGen(t, fs, "labels/votes", 2, 7, 2, names, nil, 21)
	if n, err := LatestGeneration(fs, "labels/votes"); err != nil || n != 2 {
		t.Fatalf("after two generations: gen %d, err %v", n, err)
	}
}

// writeV1Set writes mx at base as vote sets were written before a generation
// was one record: "DBV1" shards whose 24-byte header repeats the column
// count, row count, payload CRC and write generation, under a commit record
// that carries the write generation too.
func writeV1Set(t *testing.T, fs dfs.FS, base string, mx *labelmodel.Matrix, names []string, shards int) {
	t.Helper()
	m, n := mx.NumExamples(), mx.NumFuncs()
	rec := dfs.Record{Rows: m, Names: names}
	for s := 0; s < shards; s++ {
		rows := shardRows(m, s, shards)
		buf := make([]byte, 24+rows*n)
		copy(buf, "DBV1")
		binary.LittleEndian.PutUint32(buf[4:], uint32(n))
		binary.LittleEndian.PutUint32(buf[8:], uint32(rows))
		binary.LittleEndian.PutUint64(buf[16:], 7)
		for k := 0; k < rows; k++ {
			if err := labelmodel.EncodeVotes(buf[24+k*n:24+(k+1)*n], mx.Row(s+k*shards)); err != nil {
				t.Fatal(err)
			}
		}
		sum := crc32.ChecksumIEEE(buf[24:])
		binary.LittleEndian.PutUint32(buf[12:], sum)
		rec.Shards = append(rec.Shards, dfs.ShardSum{Size: int64(len(buf)), Digest: sum})
		if err := dfs.PublishShard(fs, base, s, shards, buf); err != nil {
			t.Fatal(err)
		}
	}
	v1 := struct {
		dfs.Record
		Generation uint64 `json:"generation"`
	}{rec.Sealed(), 7}
	if _, err := dfs.WriteJSON(fs, dfs.RecordPath(base), v1); err != nil {
		t.Fatal(err)
	}
}

// writeV1Generation writes a generation as stores did before a generation
// was one record: a manifest at the bare key, after its votes as a ".data"
// set (none for a deletions-only generation).
func writeV1Generation(t *testing.T, fs dfs.FS, key string, gen, startRow int, mx *labelmodel.Matrix, names []string, deleted []int) {
	t.Helper()
	rows := 0
	if mx != nil {
		rows = mx.NumExamples()
		writeV1Set(t, fs, key+".data", mx, names, 2)
	}
	manifest := map[string]any{"gen": gen, "names": names, "start_row": startRow, "rows": rows, "shards": 2, "deleted": deleted}
	if _, err := dfs.WriteJSON(fs, key, manifest); err != nil {
		t.Fatal(err)
	}
}

// TestParentLayoutIsRefused: a store written before a generation was its
// shards and one commit record — "DBV1" shards, manifests at bare keys and
// ".data" sets — is refused by every read with an error naming one of its
// files, never read as a shorter chain (its manifests skipped as strays), and
// staging a new base clears it.
func TestParentLayoutIsRefused(t *testing.T) {
	names := []string{"a", "b"}
	segment := path.Join(genDir(storeBase), "00000-00001-00000000000000aa")
	for _, tc := range []struct {
		what  string
		chain bool // generations stand over the flat artifact, if any
		write func(t *testing.T, fs dfs.FS)
	}{
		{"after a run", true, func(t *testing.T, fs dfs.FS) {
			writeV1Generation(t, fs, segment, 0, 0, randomVotes(t, 10, 2, 1), names, nil)
		}},
		{"after a run and a delta", true, func(t *testing.T, fs dfs.FS) {
			writeV1Generation(t, fs, segment, 0, 0, randomVotes(t, 10, 2, 1), names, nil)
			writeV1Generation(t, fs, genBase(storeBase, 1), 1, 10, randomVotes(t, 4, 2, 2), names, []int{3})
		}},
		{"compacted", false, func(t *testing.T, fs dfs.FS) {
			writeV1Set(t, fs, storeBase, randomVotes(t, 10, 2, 1), names, 2)
		}},
		{"compacted, then a deletions-only delta", true, func(t *testing.T, fs dfs.FS) {
			writeV1Set(t, fs, storeBase, randomVotes(t, 10, 2, 1), names, 2)
			writeV1Generation(t, fs, genBase(storeBase, 1), 1, 10, nil, names, []int{3})
		}},
	} {
		t.Run(tc.what, func(t *testing.T) {
			fs := dfs.NewMem()
			tc.write(t, fs)
			files, err := fs.List(storeBase)
			if err != nil {
				t.Fatal(err)
			}
			_, loadErr := docExecutor(fs).LoadMatrix(names)
			_, _, readErr := ReadVotes(fs, storeBase, names)
			_, verifyErr := VerifyVotes(fs, storeBase)
			_, _, viewErr := LoadView(fs, storeBase, names, nil)
			refusals := map[string]error{"LoadMatrix": loadErr, "ReadVotes": readErr, "VerifyVotes": verifyErr, "LoadView": viewErr}
			if tc.chain { // a fold with no chain reads nothing
				_, refusals["CompactView"] = CompactView(fs, storeBase, 2, nil)
			}
			for entry, err := range refusals {
				if err == nil || !slices.ContainsFunc(files, func(f string) bool { return strings.Contains(err.Error(), f+" ") }) {
					t.Errorf("%s = %v, want an error naming one of %v", entry, err, files)
				}
			}
			if HasVotes(fs, storeBase) {
				t.Error("HasVotes reads the store")
			}
			if err := DropGenerations(fs, storeBase, true); err != nil {
				t.Fatal(err)
			}
			if left, err := fs.List(storeBase); err != nil || len(left) != 0 {
				t.Errorf("staging a new base left %v (%v)", left, err)
			}
		})
	}
	// Listing alone refuses the older layout's generations.
	fs := dfs.NewMem()
	writeV1Generation(t, fs, genBase(storeBase, 1), 1, 0, nil, names, []int{0})
	if _, err := LatestGeneration(fs, storeBase); err == nil || !strings.Contains(err.Error(), genBase(storeBase, 1)+" ") {
		t.Errorf("LatestGeneration = %v, want an error naming %s", err, genBase(storeBase, 1))
	}
}
