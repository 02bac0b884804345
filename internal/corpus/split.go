package corpus

import (
	"fmt"
	"math/rand"
)

// Split holds the standard three-way partition used in §6.1: a large
// unlabeled training pool, a small hand-labeled development set (used for LF
// iteration, hyperparameters, and the supervised baseline), and a held-out
// test set.
type Split struct {
	Train, Dev, Test []int // indices into the source corpus
}

// MakeSplit partitions n examples into train/dev/test with the given dev and
// test sizes, shuffled deterministically by seed.
func MakeSplit(n, devSize, testSize int, seed int64) (Split, error) {
	if devSize < 0 || testSize < 0 || devSize+testSize >= n {
		return Split{}, fmt.Errorf("corpus: cannot split %d examples into dev=%d test=%d", n, devSize, testSize)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	return Split{
		Dev:   perm[:devSize],
		Test:  perm[devSize : devSize+testSize],
		Train: perm[devSize+testSize:],
	}, nil
}

// Select returns the documents at the given indices.
func Select(docs []*Document, idx []int) []*Document {
	out := make([]*Document, len(idx))
	for k, i := range idx {
		out[k] = docs[i]
	}
	return out
}

// TaskStats reports the Table 1 summary row for a corpus split.
type TaskStats struct {
	Task         string
	NumTrain     int
	NumDev       int
	NumTest      int
	PositiveRate float64 // on the test split, as in Table 1
	NumLFs       int
}

// StatsFor computes the Table 1 row for a document corpus and split.
func StatsFor(task string, docs []*Document, sp Split, numLFs int) TaskStats {
	return TaskStats{
		Task:         task,
		NumTrain:     len(sp.Train),
		NumDev:       len(sp.Dev),
		NumTest:      len(sp.Test),
		PositiveRate: PositiveRate(Select(docs, sp.Test)),
		NumLFs:       numLFs,
	}
}
