package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestScheduleIsAPureFunctionOfSeed(t *testing.T) {
	take := func(seed int64, client int) []request {
		s := newSchedule(seed, client, serveClients)
		out := make([]request, 500)
		for i := range out {
			rq := s.next()
			out[i] = request{route: rq.route, docs: append([]int(nil), rq.docs...)}
		}
		return out
	}
	if !reflect.DeepEqual(take(7, 3), take(7, 3)) {
		t.Fatal("same seed and client gave two different request streams")
	}
	if reflect.DeepEqual(take(7, 3), take(8, 3)) {
		t.Fatal("seeds 7 and 8 gave the same request stream")
	}
	if reflect.DeepEqual(take(7, 3), take(7, 4)) {
		t.Fatal("clients 3 and 4 gave the same request stream")
	}
}

func TestScheduleMixAndHotColdDraw(t *testing.T) {
	const client, n = 5, 200_000
	s := newSchedule(7, client, serveClients)
	var routes [numRoutes]int
	var hot, docs int
	nextCold := hotDocs + client
	for i := 0; i < n; i++ {
		rq := s.next()
		routes[rq.route]++
		if want := map[route]int{routePredict: 1, routeLabel: 1, routeLabelBatch: labelBatchDocs}[rq.route]; len(rq.docs) != want {
			t.Fatalf("route %d carries %d documents, want %d", rq.route, len(rq.docs), want)
		}
		for _, d := range rq.docs {
			docs++
			if d < hotDocs {
				hot++
				continue
			}
			// Cold documents are walked in order, this client taking every
			// serveClients-th one and wrapping around the pool.
			if d != nextCold {
				t.Fatalf("cold draw %d, want %d", d, nextCold)
			}
			nextCold = hotDocs + (nextCold-hotDocs+serveClients)%coldDocs
		}
	}
	near := func(name string, got, want float64) {
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%s share %.4f, want %.2f", name, got, want)
		}
	}
	near("predict", float64(routes[routePredict])/n, predictShare)
	near("label", float64(routes[routeLabel])/n, labelShare)
	near("label batch", float64(routes[routeLabelBatch])/n, 1-predictShare-labelShare)
	near("hot", float64(hot)/float64(docs), hotShare)
}

func TestAppendNumbers(t *testing.T) {
	predict := []byte(`{"model":"m","version":1,"score":0.8125,"positive":true,"batch_size":32}`)
	if got := appendNumbers(nil, predict, scoreKey); !reflect.DeepEqual(got, []float64{0.8125}) {
		t.Errorf("score: got %v", got)
	}
	batch := []byte(`[{"posterior":0.25,"votes":[{"lf":"a","category":"c","vote":1}]},{"posterior":1e-7,"votes":[]},{"posterior":1}]`)
	if got := appendNumbers(nil, batch, posteriorKey); !reflect.DeepEqual(got, []float64{0.25, 1e-7, 1}) {
		t.Errorf("posteriors: got %v", got)
	}
	if got := appendNumbers(nil, []byte(`{"votes":[]}`), posteriorKey); len(got) != 0 {
		t.Errorf("no posterior in the body, got %v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 17.5}, {0.5, 25}, {0.75, 32.5}, {1, 40},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("quantile sorted its argument in place")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := median([]float64{5}); got != 5 {
		t.Errorf("median of one = %v, want 5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestSelfTime(t *testing.T) {
	at := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Parent: 0, Name: "rep", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "stage", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "execute", Start: at(30), End: at(80)},
		{ID: 4, Parent: 3, Name: "task-a", Start: at(35), End: at(60)},
		{ID: 5, Parent: 3, Name: "task-b", Start: at(50), End: at(75)}, // overlaps task-a: 50-60 counts once
		{ID: 6, Parent: 0, Name: "probe", Start: at(100), End: at(120)},
	}
	want := map[int]time.Duration{
		1: at(30), // 100 - (20 + 50)
		2: at(20),
		3: at(10), // 50 - the 40 ms that tasks a and b cover together
		4: at(25),
		5: at(25),
		6: at(20),
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestChromeTraceNestsChildrenInsideParents(t *testing.T) {
	tr := newTracer()
	root := tr.begin("rep", 0, 0)
	if err := tr.do("stage", root, 0, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	tr.end(root)
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Ph   string
			TS   int64
			Dur  int64
			Args struct {
				SpanID   int `json:"span_id"`
				ParentID int `json:"parent_id"`
			}
		}
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	if len(trace.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(trace.TraceEvents))
	}
	parent, child := trace.TraceEvents[0], trace.TraceEvents[1]
	if child.Args.ParentID != parent.Args.SpanID || parent.Args.ParentID != 0 {
		t.Errorf("parent ids: child %d under %d, root under %d", child.Args.SpanID, child.Args.ParentID, parent.Args.ParentID)
	}
	if parent.Ph != "X" || parent.Dur < 1 || child.Dur < 1 {
		t.Errorf("events must be complete with dur >= 1: %+v %+v", parent, child)
	}
	if child.TS < parent.TS || child.TS > parent.TS+parent.Dur {
		t.Errorf("child starts at %d, outside its parent [%d, %d]", child.TS, parent.TS, parent.TS+parent.Dur)
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the program's default is %v", file.RunSeconds, defaultSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.Name)
		if got := file.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %+v", i, got, w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(file.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		checkName(d.Name)
		got := file.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if !unit.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(file.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		checkName(d.Name)
		if got := file.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if !unit.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("per-layer metric %+v is outside the contract", d)
		}
	}
}
