package lf

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/labelmodel"
)

const storeBase = "labels/votes"

func sameMatrix(t *testing.T, what string, got, want *labelmodel.Matrix) {
	t.Helper()
	if got.NumExamples() != want.NumExamples() || got.NumFuncs() != want.NumFuncs() {
		t.Fatalf("%s: %d×%d, oracle %d×%d", what, got.NumExamples(), got.NumFuncs(), want.NumExamples(), want.NumFuncs())
	}
	for i := 0; i < want.NumExamples(); i++ {
		for j := 0; j < want.NumFuncs(); j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("%s: vote [%d,%d] = %d, oracle %d", what, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// randomColumns draws a non-empty subset of the column pool in random order.
func randomColumns(rng *rand.Rand, pool []string) []string {
	perm := rng.Perm(len(pool))
	cols := make([]string, 1+rng.Intn(len(pool)))
	for j := range cols {
		cols[j] = pool[perm[j]]
	}
	return cols
}

// writeRandomChain publishes a random store at storeBase — an optional flat
// base and up to two generation-0 segments over its rows, then 1–8
// generations of appends, rewrites, tombstones and deletion-only entries over
// random column subsets and shard counts — that always keeps at least one live
// row. appendOdds in 4 generations start at the chain's end (the rest split
// between deletions only and rewrites), and published runs after the flat
// base and after each segment or generation commits.
func writeRandomChain(t *testing.T, rng *rand.Rand, fs dfs.FS, appendOdds int, published func()) {
	t.Helper()
	pool := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	total := 0
	dead := map[int]bool{}
	if rng.Intn(4) > 0 {
		total = 1 + rng.Intn(30)
		cols := randomColumns(rng, pool)
		if err := WriteVotes(fs, storeBase, randomVotes(t, total, len(cols), rng.Int63()), cols, 1+rng.Intn(5)); err != nil {
			t.Fatal(err)
		}
		published()
	}
	for segments := rng.Intn(3); segments > 0; segments-- {
		if total == 0 {
			total = 1 + rng.Intn(30)
		}
		cols := randomColumns(rng, pool)
		if _, err := publishSegment(fs, storeBase, matrixSet(randomVotes(t, total, len(cols), rng.Int63()), 1+rng.Intn(5), dfs.Record{Names: cols})); err != nil {
			t.Fatal(err)
		}
		published()
	}
	for gen, gens := 1, 1+rng.Intn(8); gen <= gens; gen++ {
		meta, shards := dfs.Record{Names: randomColumns(rng, pool)}, 1+rng.Intn(4)
		rows := 1 + rng.Intn(10)
		switch kind := rng.Intn(4); {
		case total == 0 || kind < appendOdds: // append
			meta.StartRow = total
		case kind == appendOdds: // deletions only
			meta.StartRow, rows = total, 0
		default: // rewrite, possibly running past the end
			meta.StartRow = rng.Intn(total)
		}
		for i := meta.StartRow; i < meta.StartRow+rows; i++ {
			delete(dead, i)
		}
		total = max(total, meta.StartRow+rows)
		if rows == 0 || rng.Intn(2) == 0 {
			for _, d := range rng.Perm(total)[:rng.Intn(min(total, 4)+1)] {
				if len(dead) < total-1 || dead[d] {
					meta.Deleted = append(meta.Deleted, d)
					dead[d] = true
				}
			}
		}
		var mx *labelmodel.Matrix
		if rows > 0 {
			mx = randomVotes(t, rows, len(meta.Names), rng.Int63())
		} else if len(meta.Deleted) == 0 {
			continue // nothing to publish; generation numbers may skip
		}
		if err := publishGeneration(fs, storeBase, gen, matrixSet(mx, shards, meta)); err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		published()
	}
}

// readCounter counts the files read through it.
type readCounter struct {
	dfs.FS
	reads int
}

func (c *readCounter) ReadFile(path string) ([]byte, error) {
	c.reads++
	return c.FS.ReadFile(path)
}

// carrier follows a store the way a reader that keeps its view does. After
// each publish it either looks — LoadView from the view it holds — or does
// not, so that the next look finds generations a second writer published
// behind its back. Whenever it looks, what it then holds must equal the view
// rebuilt from the store, field for field, and a carried look must have
// streamed only the rows published since the last one.
type carrier struct {
	t     *testing.T
	what  string
	rng   *rand.Rand // its own: looking must not change the chain generated
	fs    dfs.FS
	names []string
	view  *View
	// carried and rebuilt count the looks by outcome, over all chains.
	carried, rebuilt *int
}

func (c *carrier) look() {
	c.t.Helper()
	got, read, err := LoadView(c.fs, storeBase, c.names, c.view)
	if err != nil {
		c.t.Fatalf("%s: carried LoadView: %v", c.what, err)
	}
	want, whole, err := LoadView(c.fs, storeBase, c.names, nil)
	if err != nil || whole.Rebuilt != RebuiltNoState {
		c.t.Fatalf("%s: rebuilding LoadView = %+v, %v", c.what, whole, err)
	}
	if !reflect.DeepEqual(got, want) {
		c.t.Fatalf("%s: carried view (%+v) differs from the rebuilt one", c.what, read)
	}
	oracle, _, err := oracleReadVersioned(c.fs, storeBase, c.names)
	if err != nil {
		c.t.Fatalf("%s: oracle: %v", c.what, err)
	}
	sameMatrix(c.t, c.what+" carried", got.Matrix, oracle)
	if read.Rebuilt != "" {
		*c.rebuilt++
		if read != whole && !(c.view == nil && read.Rebuilt == RebuiltNoState) {
			// Any reason reads what a reader without state reads.
			whole.Rebuilt = read.Rebuilt
			if read != whole {
				c.t.Fatalf("%s: rebuild read %+v, a fresh read %+v", c.what, read, whole)
			}
		}
	} else {
		*c.carried++
		if grew := got.Matrix.NumExamples() - c.view.Matrix.NumExamples(); read.Rows != grew {
			c.t.Fatalf("%s: carried look streamed %d rows for %d new ones", c.what, read.Rows, grew)
		}
	}
	c.view = got
}

func (c *carrier) published() {
	c.t.Helper()
	if c.names == nil {
		// Columns of the first segment are stored at every later prefix.
		p, err := planVotes(c.fs, storeBase, true, nil)
		if err != nil {
			c.t.Fatalf("%s: %v", c.what, err)
		}
		c.names = p.names
		if c.rng.Intn(2) == 0 {
			c.names = randomColumns(c.rng, p.names)
		}
	}
	if c.rng.Intn(3) > 0 {
		c.look()
	}
}

// TestScanMatchesOracleOnGeneratedChains: over seeded random stores and
// random column projections (subsets, reorderings, duplicates), the one
// reader returns exactly what the old per-generation re-merge returned,
// VerifyVotes accepts the store, and compacting it leaves a flat artifact
// that reads back as the same view. Along the way a carried view (carrier)
// follows every chain generation by generation, through the compaction — which
// folds from the view when it can, without reading a shard — and through an
// append over the compacted store. The second batch of chains is append-heavy,
// so that views are carried over several generations in a row.
func TestScanMatchesOracleOnGeneratedChains(t *testing.T) {
	var carried, rebuilt, foldedFromView int
	for seed := int64(1); seed <= 230; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := dfs.NewMem()
		what := fmt.Sprintf("seed %d", seed)
		appendOdds := 1
		if seed > 150 {
			appendOdds = 3
		}
		follow := &carrier{t: t, what: what, rng: rand.New(rand.NewSource(-seed)), fs: fs, carried: &carried, rebuilt: &rebuilt}
		writeRandomChain(t, rng, fs, appendOdds, follow.published)

		full, union, err := oracleReadVersioned(fs, storeBase, nil)
		if err != nil {
			t.Fatalf("%s: oracle: %v", what, err)
		}
		var names []string
		if rng.Intn(3) > 0 {
			names = make([]string, 1+rng.Intn(6))
			for j := range names {
				names[j] = union[rng.Intn(len(union))]
			}
		}
		want, wantNames, err := oracleReadVersioned(fs, storeBase, names)
		if err != nil {
			t.Fatalf("%s: oracle: %v", what, err)
		}
		got, gotNames, err := readVotes(fs, storeBase, true, names)
		if err != nil {
			t.Fatalf("%s: readVotes(%v): %v", what, names, err)
		}
		if fmt.Sprint(gotNames) != fmt.Sprint(wantNames) {
			t.Fatalf("%s: names %v, oracle %v", what, gotNames, wantNames)
		}
		sameMatrix(t, what+" projected", got, want)

		stored, err := VerifyVotes(fs, storeBase)
		if err != nil || fmt.Sprint(stored) != fmt.Sprint(union) {
			t.Fatalf("%s: VerifyVotes = %v, %v; oracle union %v", what, stored, err, union)
		}

		// Compact with the carrier's view caught up with the chain. It holds
		// the stored union in order on about half the chains whose union the
		// first segment already had; only then may the fold skip the re-read.
		follow.look()
		hadChain := HasGenerations(fs, storeBase)
		counted := &readCounter{FS: fs}
		folded, err := CompactView(counted, storeBase, 1+rng.Intn(5), follow.view)
		if err != nil {
			t.Fatalf("%s: compact: %v", what, err)
		}
		if hadChain && fmt.Sprint(follow.names) == fmt.Sprint(union) {
			foldedFromView++
			// The plan reads the flat artifact's commit record (or finds
			// none) and each generation's; a shard is one read more.
			metadata := 1 + len(follow.view.gens)
			if counted.reads != metadata {
				t.Fatalf("%s: fold from a caught-up view of the stored columns made %d reads, the metadata is %d", what, counted.reads, metadata)
			}
		}
		flat, flatNames, err := ReadVotes(fs, storeBase, nil)
		if err != nil {
			t.Fatalf("%s: read compacted: %v", what, err)
		}
		if fmt.Sprint(flatNames) != fmt.Sprint(union) {
			t.Fatalf("%s: compacted names %v, oracle %v", what, flatNames, union)
		}
		sameMatrix(t, what+" compacted", flat, full)

		// The folded view is the compacted store's view, and carries on. With
		// no chain to fold, CompactView hands back the carrier's own view, whose
		// columns may be a projection.
		follow.names, follow.view, follow.what = union, folded, what+" after compaction"
		follow.look()
		if hadChain && follow.view != folded {
			t.Fatalf("%s: the view CompactView returned was not carried over the store it wrote", what)
		}
		writeGen(t, fs, storeBase, 1, full.NumExamples(), 1+rng.Intn(5), randomColumns(rng, union), nil, rng.Int63())
		before := carried
		follow.look()
		if carried != before+1 {
			t.Fatalf("%s: an append over the compacted store rebuilt the folded view", what)
		}
	}
	// The generator must keep exercising both outcomes, or the test has
	// quietly stopped testing the carry.
	if carried < 200 || rebuilt < 200 || foldedFromView < 10 {
		t.Fatalf("%d carried looks, %d rebuilt, %d folds from the view: the generated chains no longer cover the carry", carried, rebuilt, foldedFromView)
	}
}

// rewriteShard applies edit to a stored shard and re-seals its payload
// checksum, its digest in the commit record, so the edit reaches the checks
// behind the CRC.
func rewriteShard(t *testing.T, fs dfs.FS, shard string, edit func(data []byte) []byte) {
	t.Helper()
	data, err := fs.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	data = edit(data)
	sum := crc32.ChecksumIEEE(data[voteShardHeaderSize:])
	if err := fs.WriteFile(shard, data); err != nil {
		t.Fatal(err)
	}
	base, s, _, _ := dfs.ParseShardPath(shard)
	rewriteRecord(t, fs, base, func(r *dfs.Record) { r.Shards[s].Digest = sum })
}

// rewriteRecord applies edit to the commit record of the shard set at base
// and re-seals it — set digest and checksum — so the edit reaches the checks
// behind them.
func rewriteRecord(t *testing.T, fs dfs.FS, base string, edit func(*dfs.Record)) {
	t.Helper()
	rec, err := dfs.ReadRecord(fs, base)
	if err != nil {
		t.Fatal(err)
	}
	edit(rec)
	if _, err := dfs.WriteRecord(fs, base, *rec); err != nil {
		t.Fatal(err)
	}
}

// TestEveryStoredByteCheckStillFires is the check-by-check table of the one
// reader: each stored-byte verification the seven readers performed between
// them is tripped by one damaged store, and must reject it through every
// entry point that scans the whole store — LoadMatrix, VerifyVotes and
// CompactView (which must then leave the chain standing).
func TestEveryStoredByteCheckStillFires(t *testing.T) {
	names := []string{"a", "b", "c"}
	flatShard := dfs.ShardPath(storeBase, 1, 4)
	genShard := dfs.ShardPath(genBase(storeBase, 1), 2, 3)
	corrupt := func(path string, offset int) func(*testing.T, *dfs.Mem) {
		return func(t *testing.T, fs *dfs.Mem) {
			if err := fs.Corrupt(path, offset); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		check  string
		damage func(t *testing.T, fs *dfs.Mem)
		want   string
	}{
		// One flipped byte.
		{"shard CRC (flat payload byte)", corrupt(flatShard, voteShardHeaderSize+2), "checksum mismatch"},
		{"shard magic (generation shard header)", corrupt(genShard, 1), "bad magic"},
		{"votes.meta unreadable", corrupt(dfs.RecordPath(storeBase), 40), "is corrupt"},
		{"manifest CRC (flipped byte)", corrupt(dfs.RecordPath(genBase(storeBase, 2)), 10), "is corrupt"},
		// A shard of the same size from another write of the same rows.
		{"shard from another write", func(t *testing.T, fs *dfs.Mem) {
			other := dfs.NewMem()
			writeGen(t, other, storeBase, 1, 40, 9, names, []int{3}, 99)
			data, err := other.ReadFile(genShard)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(genShard, data); err != nil {
				t.Fatal(err)
			}
		}, "does not match its commit record's digest"},
		// Edits re-sealed behind their checksum.
		{"meta degenerate", func(t *testing.T, fs *dfs.Mem) {
			rewriteRecord(t, fs, storeBase, func(r *dfs.Record) { r.Shards = nil })
		}, "is degenerate"},
		{"record set digest", func(t *testing.T, fs *dfs.Mem) {
			rec, err := dfs.ReadRecord(fs, storeBase)
			if err != nil {
				t.Fatal(err)
			}
			rec.Digest++
			if _, err := dfs.WriteJSON(fs, dfs.RecordPath(storeBase), rec); err != nil {
				t.Fatal(err)
			}
		}, "does not match its own set digest"},
		{"record columns", func(t *testing.T, fs *dfs.Mem) {
			rewriteRecord(t, fs, storeBase, func(r *dfs.Record) { r.Names = nil })
		}, "names no columns"},
		{"meta shard count", func(t *testing.T, fs *dfs.Mem) {
			rewriteRecord(t, fs, genBase(storeBase, 1), func(r *dfs.Record) { r.Shards = r.Shards[:2] })
		}, "00001-00000-of-00002 is 13 bytes, not 5 rows"},
		{"meta row total", func(t *testing.T, fs *dfs.Mem) {
			rewriteRecord(t, fs, storeBase, func(r *dfs.Record) { r.Rows = 41 })
		}, "votes-00000-of-00004 is 34 bytes, not 11 rows"},
		{"record shard size", func(t *testing.T, fs *dfs.Mem) {
			rewriteRecord(t, fs, storeBase, func(r *dfs.Record) { r.Shards[1].Size-- })
		}, "votes-00001-of-00004 is 33 bytes"},
		{"record shard digest", func(t *testing.T, fs *dfs.Mem) {
			rewriteRecord(t, fs, genBase(storeBase, 2), func(r *dfs.Record) { r.Shards[2].Digest++ })
		}, "does not match its commit record's digest"},
		{"shard payload size", func(t *testing.T, fs *dfs.Mem) {
			rewriteShard(t, fs, flatShard, func(d []byte) []byte { return d[:len(d)-1] })
		}, "does not match its commit record"},
		{"vote byte range", func(t *testing.T, fs *dfs.Mem) {
			rewriteShard(t, fs, genShard, func(d []byte) []byte { d[voteShardHeaderSize+1] = 5; return d })
		}, "stored vote byte 5 out of range"},
		// A generation's record is its manifest: its key finds its shards.
		{"manifest key", func(t *testing.T, fs *dfs.Mem) {
			if err := fs.Rename(dfs.RecordPath(genBase(storeBase, 2)), dfs.RecordPath(genBase(storeBase, 3))); err != nil {
				t.Fatal(err)
			}
		}, "labels/votes/_gen/00003"},
		{"manifest degenerate", func(t *testing.T, fs *dfs.Mem) {
			rewriteRecord(t, fs, genBase(storeBase, 2), func(r *dfs.Record) { r.Shards = nil })
		}, "is degenerate"},
		{"generation gap", func(t *testing.T, fs *dfs.Mem) {
			rewriteRecord(t, fs, genBase(storeBase, 2), func(r *dfs.Record) { r.StartRow = 60 })
		}, "starts at row 60"},
		{"tombstone range", func(t *testing.T, fs *dfs.Mem) {
			rewriteRecord(t, fs, genBase(storeBase, 2), func(r *dfs.Record) { r.Deleted = []int{99} })
		}, "tombstones row 99"},
		{"manifest rows vs segment", func(t *testing.T, fs *dfs.Mem) {
			rewriteRecord(t, fs, genBase(storeBase, 1), func(r *dfs.Record) { r.Rows = 7 })
		}, "00001-00001-of-00003 is 13 bytes, not 2 rows"},
	} {
		t.Run(tc.check, func(t *testing.T) {
			fs := dfs.NewMem()
			if err := WriteVotes(fs, storeBase, randomVotes(t, 40, 3, 1), names, 4); err != nil {
				t.Fatal(err)
			}
			writeGen(t, fs, storeBase, 1, 40, 9, names, []int{3}, 2)
			writeGen(t, fs, storeBase, 2, 45, 8, names, nil, 3)
			if _, err := VerifyVotes(fs, storeBase); err != nil {
				t.Fatalf("intact store rejected: %v", err)
			}
			tc.damage(t, fs)

			_, loadErr := docExecutor(fs).LoadMatrix(names)
			_, verifyErr := VerifyVotes(fs, storeBase)
			_, compactErr := CompactView(fs, storeBase, 4, nil)
			for entry, err := range map[string]error{"LoadMatrix": loadErr, "VerifyVotes": verifyErr, "CompactView": compactErr} {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s = %v, want an error containing %q", entry, err, tc.want)
				}
			}
			if keys, err := fs.List(genDir(storeBase) + "/"); err != nil || len(keys) == 0 {
				t.Errorf("refused compaction still removed the chain (%v, %v)", keys, err)
			}
		})
	}
}

// TestOversizedRowClaimFailsTheRead: a commit record's row count sizes the
// view, so it is checked against what the segment's shards can hold before
// anything is allocated. A record claiming 2^40 rows over a four-row
// artifact used to end the process out of memory inside labelmodel.NewMatrix
// — not a panic a caller can recover — and a carried read grew its view by a
// generation's claim the same way. Every read must fail instead, naming the
// segment: a record whose shard sizes cannot hold its rows is refused as it is
// read, and one whose sizes would hold them is refused by the shards' Stat.
func TestOversizedRowClaimFailsTheRead(t *testing.T) {
	names := []string{"a", "b"}
	const huge = 1 << 40
	store := func(t *testing.T) (*dfs.Mem, *View) {
		fs := dfs.NewMem()
		if err := WriteVotes(fs, storeBase, randomVotes(t, 4, 2, 1), names, 2); err != nil {
			t.Fatal(err)
		}
		view, _, err := LoadView(fs, storeBase, names, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fs, view
	}
	requireNamed := func(t *testing.T, entry string, err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s = %v, want an error containing %q", entry, err, want)
		}
	}
	// claim edits a record to huge rows; with sized, its shard sizes too.
	claim := func(sized bool) func(*dfs.Record) {
		return func(r *dfs.Record) {
			r.Rows = huge
			for s := range r.Shards {
				if sized {
					r.Shards[s].Size = voteShardHeaderSize + int64(shardRows(huge, s, len(r.Shards))*len(r.Names))
				}
			}
		}
	}

	for _, sized := range []bool{false, true} {
		suffix := "" // the record's sizes cannot hold its rows
		if sized {
			suffix = ", sizes to match" // they can: the shards' Stat refuses it
		}
		t.Run("flat meta"+suffix, func(t *testing.T) {
			fs, view := store(t)
			rewriteRecord(t, fs, storeBase, claim(sized))
			want := fmt.Sprintf("votes at %s: shard %s is 8 bytes, not %d rows", storeBase, dfs.ShardPath(storeBase, 0, 2), huge/2)
			if sized {
				want = fmt.Sprintf("votes at %s: dfs: %s is not staged: shard 0 of 2 does not match its commit record", storeBase, storeBase)
			}
			_, err := docExecutor(fs).LoadMatrix(names)
			requireNamed(t, "LoadMatrix", err, want)
			_, _, err = ReadVotes(fs, storeBase, nil)
			requireNamed(t, "ReadVotes", err, want)
			for _, prev := range []*View{nil, view} {
				_, _, err = LoadView(fs, storeBase, names, prev)
				requireNamed(t, "LoadView", err, want)
			}
		})
		t.Run("carried generation"+suffix, func(t *testing.T) {
			fs, view := store(t)
			writeGen(t, fs, storeBase, 1, 4, 3, names, nil, 2)
			seg := genBase(storeBase, 1)
			rewriteRecord(t, fs, seg, claim(sized))
			want := fmt.Sprintf("votes at %s: shard %s is 6 bytes, not %d rows", seg, dfs.ShardPath(seg, 0, 3), shardRows(huge, 0, 3))
			if sized {
				want = fmt.Sprintf("votes at %s: dfs: %s is not staged: shard 0 of 3 does not match its commit record", seg, seg)
			}
			_, read, err := LoadView(fs, storeBase, names, view)
			requireNamed(t, "carried LoadView", err, want)
			if read.Rebuilt != "" {
				t.Errorf("the claim was read as a rebuild (%s), not as the append it claims to be", read.Rebuilt)
			}
			_, err = docExecutor(fs).LoadMatrix(names)
			requireNamed(t, "LoadMatrix", err, want)
		})
	}
}

// TestCarriedViewChecksWhatItReads: a carried read is the same scan over fewer
// segments, so damage in a generation published since the watermark is
// refused with the error a whole-store read gives, the view held is left as
// it was, and damage under the watermark — bytes the carried read does not
// touch — turns the read into a rebuild only if the metadata shows it.
func TestCarriedViewChecksWhatItReads(t *testing.T) {
	names := []string{"a", "b", "c"}
	newShard := dfs.ShardPath(genBase(storeBase, 2), 1, 3)
	for _, tc := range []struct {
		check  string
		damage func(t *testing.T, fs *dfs.Mem)
		want   string
	}{
		{"shard CRC", func(t *testing.T, fs *dfs.Mem) {
			if err := fs.Corrupt(newShard, voteShardHeaderSize+2); err != nil {
				t.Fatal(err)
			}
		}, "checksum mismatch"},
		{"vote byte range", func(t *testing.T, fs *dfs.Mem) {
			rewriteShard(t, fs, newShard, func(d []byte) []byte { d[voteShardHeaderSize+4] = 5; return d })
		}, "stored vote byte 5 out of range for \"b\""},
		{"meta shard count", func(t *testing.T, fs *dfs.Mem) {
			rewriteRecord(t, fs, genBase(storeBase, 2), func(r *dfs.Record) { r.Shards = r.Shards[:2] })
		}, "00002-00000-of-00002 is 13 bytes, not 4 rows"},
		{"record shard digest", func(t *testing.T, fs *dfs.Mem) {
			rewriteRecord(t, fs, genBase(storeBase, 2), func(r *dfs.Record) { r.Shards[1].Digest++ })
		}, "does not match its commit record's digest"},
		{"manifest rows vs segment", func(t *testing.T, fs *dfs.Mem) {
			rewriteRecord(t, fs, genBase(storeBase, 2), func(r *dfs.Record) { r.Rows = 7 })
		}, "00002-00001-of-00003 is 13 bytes, not 2 rows"},
	} {
		t.Run(tc.check, func(t *testing.T) {
			fs := dfs.NewMem()
			if err := WriteVotes(fs, storeBase, randomVotes(t, 40, 3, 1), names, 4); err != nil {
				t.Fatal(err)
			}
			writeGen(t, fs, storeBase, 1, 40, 9, names, nil, 2)
			held, _, err := LoadView(fs, storeBase, names, nil)
			if err != nil {
				t.Fatal(err)
			}
			snapshot := held.Matrix.SubsetColumns([]int{0, 1, 2})
			writeGen(t, fs, storeBase, 2, 49, 8, names, nil, 3)
			tc.damage(t, fs)

			_, read, carriedErr := LoadView(fs, storeBase, names, held)
			_, _, wholeErr := LoadView(fs, storeBase, names, nil)
			for entry, err := range map[string]error{"carried": carriedErr, "whole": wholeErr} {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s read = %v, want an error containing %q", entry, err, tc.want)
				}
			}
			if carriedErr != nil && read.Rebuilt != "" {
				t.Errorf("the read of a grown store was not carried: %+v", read)
			}
			sameMatrix(t, "held view after a refused read", held.Matrix, snapshot)
		})
	}

	// Under the watermark: a flipped payload byte in a merged segment is not
	// read again; a re-sealed generation record is metadata, and rebuilds.
	fs := dfs.NewMem()
	if err := WriteVotes(fs, storeBase, randomVotes(t, 40, 3, 1), names, 4); err != nil {
		t.Fatal(err)
	}
	writeGen(t, fs, storeBase, 1, 40, 9, names, nil, 2)
	held, _, err := LoadView(fs, storeBase, names, nil)
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, fs, storeBase, 2, 49, 8, names, nil, 3)
	if err := fs.Corrupt(dfs.ShardPath(storeBase, 1, 4), voteShardHeaderSize+2); err != nil {
		t.Fatal(err)
	}
	grown, read, err := LoadView(fs, storeBase, names, held)
	if err != nil || read.Rebuilt != "" || read.Rows != 8 || grown.Matrix.NumExamples() != 57 {
		t.Fatalf("carried read over an unread damaged byte = %+v, %v", read, err)
	}
	rewriteRecord(t, fs, genBase(storeBase, 1), func(r *dfs.Record) { r.Deleted = []int{3} })
	if _, read, err := LoadView(fs, storeBase, names, grown); err == nil || read.Rebuilt != RebuiltChainChanged {
		t.Fatalf("read over a changed merged record = %+v, %v; want a chain_changed rebuild that meets the damaged byte", read, err)
	}
}

// TestLoadMatrixRejectsTruncatedManifest: a torn generation manifest used to
// read as "no chain", so LoadMatrix returned the stale 10-row flat artifact
// of a 14-row store without a word. A torn generation record — the
// generation's manifest — must fail naming the record.
func TestLoadMatrixRejectsTruncatedManifest(t *testing.T) {
	fs := dfs.NewMem()
	names := []string{"a", "b"}
	if err := WriteVotes(fs, storeBase, randomVotes(t, 10, 2, 1), names, 2); err != nil {
		t.Fatal(err)
	}
	writeGen(t, fs, storeBase, 1, 10, 4, names, nil, 2)
	key := dfs.RecordPath(genBase(storeBase, 1))
	raw, err := fs.ReadFile(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(key, raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	mx, err := docExecutor(fs).LoadMatrix(names)
	if err == nil {
		t.Fatalf("loaded %d rows past a truncated manifest", mx.NumExamples())
	}
	if !strings.Contains(err.Error(), key) {
		t.Fatalf("error does not name the manifest %s: %v", key, err)
	}
}

// TestAllRowsTombstonedIsAnError: a chain whose tombstones cover every row
// used to panic inside the reader (a 0-row matrix). The plan knows the live
// count before allocating: reads and compaction refuse, and compaction
// leaves the store as it found it.
func TestAllRowsTombstonedIsAnError(t *testing.T) {
	fs := dfs.NewMem()
	names := []string{"a"}
	if err := WriteVotes(fs, storeBase, randomVotes(t, 3, 1, 1), names, 2); err != nil {
		t.Fatal(err)
	}
	if err := publishGeneration(fs, storeBase, 1, matrixSet(nil, 1, dfs.Record{Names: names, StartRow: 3, Deleted: []int{0, 1, 2}})); err != nil {
		t.Fatal(err)
	}
	if _, err := docExecutor(fs).LoadMatrix(names); !errors.Is(err, ErrAllTombstoned) {
		t.Fatalf("LoadMatrix = %v, want ErrAllTombstoned", err)
	}
	if _, err := CompactView(fs, storeBase, 2, nil); !errors.Is(err, ErrAllTombstoned) {
		t.Fatalf("CompactView = %v, want ErrAllTombstoned", err)
	}
	if !HasGenerations(fs, storeBase) {
		t.Error("refused compaction removed the chain")
	}
	if mx, _, err := ReadVotes(fs, storeBase, nil); err != nil || mx.NumExamples() != 3 {
		t.Errorf("refused compaction disturbed the flat artifact: %v", err)
	}
}

// TestLoadMatrixAllocatesTheViewOnce: reading an 8-generation chain must
// cost about the bytes it has to touch — the stored shards it reads and the
// final view it returns — not one full-width view per generation, and the
// result must hold only live rows and requested columns.
func TestLoadMatrixAllocatesTheViewOnce(t *testing.T) {
	fs := dfs.NewMem()
	all := make([]string, 40)
	for j := range all {
		all[j] = fmt.Sprintf("lf%02d", j)
	}
	rows := 4000
	if err := WriteVotes(fs, storeBase, randomVotes(t, rows, len(all), 1), all, 4); err != nil {
		t.Fatal(err)
	}
	bases := []string{storeBase}
	for gen := 1; gen <= 8; gen++ {
		writeGen(t, fs, storeBase, gen, rows, 100, all, []int{gen, 1000 + gen}, int64(gen+1))
		bases = append(bases, genBase(storeBase, gen))
		rows += 100
	}
	stored := int64(0)
	for _, base := range bases {
		shards, err := dfs.ListShards(fs, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, shard := range shards {
			size, err := fs.Stat(shard)
			if err != nil {
				t.Fatal(err)
			}
			stored += size
		}
	}
	want := all[10:30]
	e := &Executor[*corpus.Document]{FS: fs, OutputPrefix: "labels"}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mx, err := e.LoadMatrix(want)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	live := rows - 16
	if mx.NumExamples() != live || mx.NumFuncs() != len(want) {
		t.Fatalf("view is %d×%d, want %d live rows × %d requested columns", mx.NumExamples(), mx.NumFuncs(), live, len(want))
	}
	view := int64(live * len(want))
	if got, bound := int64(after.TotalAlloc-before.TotalAlloc), 2*(view+stored); got > bound {
		t.Errorf("LoadMatrix allocated %d bytes for a %d-byte view over %d stored bytes (bound %d): the view is being rebuilt per generation",
			got, view, stored, bound)
	}
	oracle, _, err := oracleReadVersioned(fs, storeBase, want)
	if err != nil {
		t.Fatal(err)
	}
	sameMatrix(t, "8-generation chain", mx, oracle)
}
