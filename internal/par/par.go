// Package par is the one fan-out helper. A loop whose result is exact may size
// its partition from Procs; a floating-point reduction partitions by its input
// only, so that Procs decides how many blocks run at once, never a sum.
package par

import (
	"cmp"
	"runtime"
	"sync"
)

// Procs is how many goroutines a fan-out may keep busy.
func Procs() int {
	return runtime.GOMAXPROCS(0) //drybellvet:schedule — sizes fan-outs only (TestCompactChunksAgree, TestTrainIndependentOfProcs)
}

// Each runs fn over blocks [0, n) on up to workers goroutines, worker w
// taking blocks w, w+workers, … and stopping at its first error. It returns
// the error of the lowest-numbered failing block: every block below that one
// ran, so it is the error a serial loop would have stopped at. With one
// worker (or one block) fn runs on the caller's goroutine.
func Each(n, workers int, fn func(b int) error) error {
	workers = max(1, min(workers, n))
	if workers == 1 {
		for b := range n {
			if err := fn(b); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := w; b < n; b += workers {
				if errs[b] = fn(b); errs[b] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return cmp.Or(errs...)
}
