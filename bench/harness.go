package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// procs is the CPU width every workload runs at: GOMAXPROCS, the pipeline's
// WithParallelism and the server's Workers all get this one value, so a
// bigger host does not change what is being compared.
func procs() int { return min(runtime.NumCPU(), 4) }

// clock reads the harness's wall clock. Every timing in the benchmark is
// taken here, outside the program under test.
func clock() time.Time {
	return time.Now() //drybellvet:wallclock — the benchmark's one clock read
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantiles returns the q-quantiles of xs by linear interpolation between
// order statistics (the "inclusive" method: q=0 is the minimum, q=1 the
// maximum), sorting a copy of xs once for all of them.
func quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, q := range qs {
		if len(s) == 0 {
			out[i] = math.NaN()
			continue
		}
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		out[i] = s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return out
}

func quantile(xs []float64, q float64) float64 { return quantiles(xs, q)[0] }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// memCounters is the allocation state sampled around a timed operation.
type memCounters struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcs: m.NumGC}
}

// opSample is one timed operation: its wall time and what it allocated.
type opSample struct {
	wall    time.Duration
	mallocs uint64
	bytes   uint64
}

// timeOp runs op between two allocation snapshots and two clock reads. The
// caller collects garbage beforehand when operations must not inherit each
// other's heap.
func timeOp(op func() error) (opSample, error) {
	before := readMem()
	start := clock()
	err := op()
	wall := clock().Sub(start)
	after := readMem()
	return opSample{
		wall:    wall,
		mallocs: after.mallocs - before.mallocs,
		bytes:   after.bytes - before.bytes,
	}, err
}

// opTotals accumulates samples of one timed phase.
type opTotals struct {
	wallMs  []float64
	mallocs uint64
	bytes   uint64
}

func (t *opTotals) add(s opSample) {
	t.wallMs = append(t.wallMs, ms(s.wall))
	t.mallocs += s.mallocs
	t.bytes += s.bytes
}

func (t *opTotals) seconds() float64 { return sum(t.wallMs) / 1000 }

// kernelSink keeps the results of the host-speed kernels alive.
var kernelSink atomic.Uint64

// Sizes of the three host-speed kernels: about 25 ms each on this host when
// it is quiet.
const (
	cpuKernelSteps  = 14_000_000
	memKernelSteps  = 1_200_000
	memKernelWords  = 4 << 20 // 32 MB, well past the last-level cache
	jsonKernelSteps = 1_500
)

// cpuKernel is a fixed register-only loop: no memory traffic, no allocation.
func cpuKernel() {
	x := uint64(88172645463325252)
	for i := 0; i < cpuKernelSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	kernelSink.Add(x)
}

var memKernelData = make([]uint64, memKernelWords)

// memKernel walks a 32 MB array at random, a dependent load and a store per
// step: what a neighbour's cache and memory traffic slows down most.
func memKernel(lane int) {
	data := memKernelData
	idx, acc := uint64(lane)*7919+1, uint64(0)
	for i := 0; i < memKernelSteps; i++ {
		idx = idx*6364136223846793005 + 1442695040888963407
		j := (idx >> 24) % uint64(len(data))
		acc += data[j]
		data[j] = acc ^ idx
	}
	kernelSink.Add(acc)
}

type kernelDoc struct {
	ID     string            `json:"id"`
	Title  string            `json:"title"`
	Body   string            `json:"body"`
	URL    string            `json:"url"`
	Scores []float64         `json:"scores"`
	Attrs  map[string]string `json:"attrs"`
}

var kernelJSON, _ = json.Marshal(kernelDoc{
	ID: "doc-000123", Title: "a fixed title of moderate length for the host-speed kernel",
	Body:   strings.Repeat("the quick brown fox jumps over the lazy dog while the benchmark times the host ", 6),
	URL:    "https://newsroom.example/articles/2019/06/reference",
	Scores: []float64{0.125, 0.25, 0.5, 0.75, 1.5, 2.25, 3.125, 4.0625},
	Attrs:  map[string]string{"section": "metro", "author": "staff", "edition": "late"},
})

// jsonKernel decodes a fixed document and counts its lower-cased words:
// standard-library decoding, small allocations, string hashing — the mix the
// pipeline's decode and tokenise paths are made of.
func jsonKernel() {
	counts := map[string]int{}
	for i := 0; i < jsonKernelSteps; i++ {
		var d kernelDoc
		if json.Unmarshal(kernelJSON, &d) != nil {
			return
		}
		for _, w := range strings.Fields(d.Body) {
			counts[strings.ToLower(w)]++
		}
	}
	kernelSink.Add(uint64(len(counts)))
}

// onAllProcs runs fn once per CPU the workloads use, at the same time, and
// returns the wall time in ms.
func onAllProcs(fn func(lane int)) float64 {
	var wg sync.WaitGroup
	start := clock()
	for lane := 0; lane < procs(); lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lane)
		}()
	}
	wg.Wait()
	return ms(clock().Sub(start))
}

// hostSpeed samples how fast the host is while a workload runs. The host is
// a shared one: between one quarter of an hour and the next the same binary
// on the same inputs runs up to 1.5x slower, because of what the neighbours
// do to caches and memory, and no estimator inside one 20 s run can average
// that away. So before every timed operation the harness times three fixed
// kernels that do not depend on the code under test, and the run's timing
// metrics are reported at a nominal host speed: measured time × nominal
// kernel time ÷ this run's kernel time.
type hostSpeed struct{ cpu, mem, json []float64 }

// probe takes one sample of the three kernels (about 75 ms).
func (h *hostSpeed) probe() {
	h.cpu = append(h.cpu, onAllProcs(func(int) { cpuKernel() }))
	h.mem = append(h.mem, onAllProcs(memKernel))
	h.json = append(h.json, onAllProcs(func(int) { jsonKernel() }))
}

// kernelNominalMs is the geometric mean of the three kernels' times on this
// class of host when it is quiet. It only fixes the scale of the normalised
// metrics; comparisons between commits do not depend on it.
const kernelNominalMs = 22.0

// kernelMs is the geometric mean of the three kernels' median times.
func (h *hostSpeed) kernelMs() float64 {
	return math.Cbrt(median(h.cpu) * median(h.mem) * median(h.json))
}

// factor is what a measured time is multiplied by to read as if the host
// had run at nominal speed: below 1 on a slow host.
func (h *hostSpeed) factor() float64 { return kernelNominalMs / h.kernelMs() }

// calibrate times the pure-CPU kernel on one goroutine. Reported before and
// after each traced workload, it lets a reader see that the host moved.
func calibrate() float64 {
	start := clock()
	cpuKernel()
	return ms(clock().Sub(start))
}

// peakRSSMB reads the process's high-water resident set from /proc; zero
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}
