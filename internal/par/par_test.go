package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestEachRunsEveryBlockOnceAndReportsTheLowestFailure: without failures
// every block runs exactly once at any width; with failures the error is the
// lowest failing block's, the one a serial loop would have stopped at.
func TestEachRunsEveryBlockOnceAndReportsTheLowestFailure(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var runs [10]atomic.Int32
		if err := Each(len(runs), workers, func(b int) error { runs[b].Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
		for b := range runs {
			if n := runs[b].Load(); n != 1 {
				t.Errorf("%d workers: block %d ran %d times", workers, b, n)
			}
		}
		err := Each(10, workers, func(b int) error {
			if b == 4 || b == 7 {
				return fmt.Errorf("block %d", b)
			}
			return nil
		})
		if err == nil || err.Error() != "block 4" {
			t.Errorf("%d workers: error %v, want block 4's", workers, err)
		}
	}
	if err := Each(0, 4, func(int) error { return errors.New("ran") }); err != nil {
		t.Errorf("no blocks: %v", err)
	}
}
