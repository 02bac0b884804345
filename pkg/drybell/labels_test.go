package drybell

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/mapreduce"
)

func seqLabels(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) / float64(n)
	}
	return out
}

// TestLabelsRoundTrip covers shard layouts where shards hold unequal record
// counts and where some shards are entirely empty: the round-robin layout
// must restore input order in all of them.
func TestLabelsRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		labels int
		shards int
	}{
		{"even", 12, 4},
		{"uneven", 10, 4}, // shards hold 3,3,2,2 records
		{"one shard", 7, 1},
		{"more shards than labels", 3, 8}, // five shards are empty
		{"single label", 1, 4},
		{"prime sizes", 17, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := dfs.NewMem()
			labels := seqLabels(tc.labels)
			if err := writeLabels(fs, "out/labels", labels, tc.shards); err != nil {
				t.Fatalf("writeLabels: %v", err)
			}
			shards, err := dfs.ListShards(fs, "out/labels")
			if err != nil {
				t.Fatalf("ListShards: %v", err)
			}
			if len(shards) != tc.shards {
				t.Fatalf("wrote %d shards, want %d", len(shards), tc.shards)
			}
			got, err := readLabels(fs, "out/labels")
			if err != nil {
				t.Fatalf("readLabels: %v", err)
			}
			if len(got) != len(labels) {
				t.Fatalf("read %d labels, want %d", len(got), len(labels))
			}
			for i := range labels {
				if got[i] != labels[i] {
					t.Fatalf("label %d = %v, want %v", i, got[i], labels[i])
				}
			}
		})
	}
}

func TestWriteLabelsRejectsOutOfRange(t *testing.T) {
	cases := []struct {
		name  string
		value float64
	}{
		{"negative", -0.1},
		{"above one", 1.5},
		{"NaN", math.NaN()},
		{"negative infinity", math.Inf(-1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := dfs.NewMem()
			labels := []float64{0.25, tc.value, 0.75}
			err := writeLabels(fs, "out/labels", labels, 2)
			if err == nil {
				t.Fatalf("writeLabels accepted %v", tc.value)
			}
			if !strings.Contains(err.Error(), "out of [0,1]") {
				t.Fatalf("error = %v, want out-of-range message", err)
			}
			// Nothing must be committed for an invalid label set.
			if _, lerr := dfs.ListShards(fs, "out/labels"); lerr == nil {
				t.Fatal("shards committed despite invalid label")
			}
		})
	}
}

// Boundary values 0 and 1 are legal probabilities.
func TestWriteLabelsBoundaries(t *testing.T) {
	fs := dfs.NewMem()
	labels := []float64{0, 1, 0.5}
	if err := writeLabels(fs, "out/labels", labels, 2); err != nil {
		t.Fatalf("writeLabels: %v", err)
	}
	got, err := readLabels(fs, "out/labels")
	if err != nil {
		t.Fatalf("readLabels: %v", err)
	}
	for i := range labels {
		if got[i] != labels[i] {
			t.Fatalf("label %d = %v, want %v", i, got[i], labels[i])
		}
	}
}

func TestReadLabelsRejectsTruncatedRecord(t *testing.T) {
	fs := dfs.NewMem()
	// A record of the wrong width: 7 bytes instead of float64's 8.
	bad := [][]byte{{1, 2, 3, 4, 5, 6, 7}}
	if err := mapreduce.WriteInput(fs, "out/labels", bad, 1); err != nil {
		t.Fatalf("WriteInput: %v", err)
	}
	_, err := readLabels(fs, "out/labels")
	if err == nil || !strings.Contains(err.Error(), "label record has 7 bytes") {
		t.Fatalf("readLabels = %v, want truncated-record error", err)
	}
}

func TestReadLabelsRejectsCorruptShard(t *testing.T) {
	fs := dfs.NewMem()
	if err := writeLabels(fs, "out/labels", seqLabels(16), 2); err != nil {
		t.Fatalf("writeLabels: %v", err)
	}
	shards, err := dfs.ListShards(fs, "out/labels")
	if err != nil {
		t.Fatalf("ListShards: %v", err)
	}
	// Flip a byte inside the recordio framing of the first shard.
	if err := fs.Corrupt(shards[0], 1); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	if _, err := readLabels(fs, "out/labels"); err == nil {
		t.Fatal("readLabels succeeded on corrupt shard, want error")
	}
}

// TestWriteLabelsAllocationCeiling: persisting labels costs a fixed number of
// allocations per shard — each shard's block, the commit record, what the
// filesystem copies — not one per label (50k a persist on the repo
// benchmark's workloads, once).
func TestWriteLabelsAllocationCeiling(t *testing.T) {
	const shards = 8
	fs := dfs.NewMem()
	allocs := map[int]float64{}
	for _, n := range []int{2_000, 20_000} {
		labels := seqLabels(n)
		allocs[n] = testing.AllocsPerRun(5, func() {
			if err := writeLabels(fs, "out/labels", labels, shards); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[20_000] > allocs[2_000]+shards || allocs[20_000] > 20*shards {
		t.Errorf("writeLabels made %.0f allocations for 2k labels and %.0f for 20k over %d shards; want a per-shard constant",
			allocs[2_000], allocs[20_000], shards)
	}
}
