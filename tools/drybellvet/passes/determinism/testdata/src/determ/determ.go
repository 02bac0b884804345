// Package determ is the determinism analyzer's golden fixture: each
// construct below either draws a diagnostic (validated by the trailing
// `// want` pattern) or proves an exemption holds.
package determ

import (
	"math/rand"
	"runtime"
	"time"
)

// MapRanges covers the range-over-map rule and its //drybellvet:ordered
// allowlist.
func MapRanges(m map[string]int, s []int) int {
	total := 0
	for _, v := range m { // want `range over map has nondeterministic iteration order`
		total += v
	}
	//drybellvet:ordered — commutative sum, order-insensitive
	for _, v := range m {
		total += v
	}
	for _, v := range s { // slices iterate in order: fine
		total += v
	}
	return total
}

// WallClock covers time.Now and its //drybellvet:wallclock allowlist.
func WallClock() int64 {
	bad := time.Now() // want `time.Now on a deterministic output path`
	ok := time.Now()  //drybellvet:wallclock — observability timing only
	return bad.Unix() + ok.Unix()
}

// GlobalRand covers the process-seeded math/rand globals, the seeded
// constructor exemption, and the //drybellvet:wallclock allowlist.
func GlobalRand() uint64 {
	bad := rand.Uint64() // want `global math/rand.Uint64 is seeded per process`
	r := rand.New(rand.NewSource(7))
	good := r.Uint64()       // methods on an explicitly seeded generator: fine
	jitter := rand.Int63n(3) //drybellvet:wallclock — retry jitter, not artifact bytes
	return bad + good + uint64(jitter)
}

// CoreCount covers core-count reads and the //drybellvet:schedule allowlist.
func CoreCount() int {
	bad := runtime.GOMAXPROCS(0) // want `runtime.GOMAXPROCS on a deterministic output path`
	cpus := runtime.NumCPU()     // want `runtime.NumCPU on a deterministic output path`
	ok := runtime.GOMAXPROCS(0)  //drybellvet:schedule — worker count, pinned by a test
	return bad + cpus + ok + runtime.NumGoroutine()
}
