// Command bench is the repository's benchmark: four workloads, seven
// end-to-end metrics, and a traced run that yields per-layer numbers. See
// README.md for how to run it and what each estimator is; BENCHMARK.json at
// the repository root is the contract the driver reads.
//
//	bench --workload batch_topic --seed 7 --seconds 12 --trace 0
//
// runs one workload and prints every metric by name and unit, then one JSON
// object as the last line. Without --workload it runs all four, each in its
// own child process so heap state and peak RSS do not leak between them.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/corpus"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// metricValue and result are the JSON object the driver parses from the
// last line of standard output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (empty: all four, each in a child process)")
		seed      = flag.Int64("seed", 7, "seeds every generator and schedule; the only thing that varies the inputs")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of the timed phase")
		trace     = flag.Int("trace", 0, "1: the traced run, reporting per-layer metrics and writing a Chrome trace")
		outDir    = flag.String("out", "bench/out", "directory the traced run writes trace-<workload>.json to")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced benchmark twice and print the gap between the runs next to each bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--selfcheck]")
		os.Exit(2)
	}
	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds)
	case *workload == "":
		_, err = runAll(*seed, *seconds, *trace, *outDir)
	default:
		err = runOne(*workload, *seed, *seconds, *trace == 1, *outDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// runOne runs a single workload in this process and prints its result.
func runOne(name string, seed int64, seconds float64, traced bool, outDir string) error {
	runtime.GOMAXPROCS(procs())
	ctx := context.Background()
	var tr *tracer
	defs := endToEnd
	if traced {
		tr = newTracer()
		defs = perLayer
	}
	calibBefore := calibrate()

	var o *outcome
	var err error
	switch name {
	case "batch_topic":
		var tk *task[*corpus.Document]
		if tk, err = topicTask(seed, topicDocs); err == nil {
			o, err = runOrTraceBatch(ctx, tk, seconds, tr)
		}
	case "batch_events":
		var tk *task[*corpus.Event]
		if tk, err = eventsTask(seed, batchEvents); err == nil {
			o, err = runOrTraceBatch(ctx, tk, seconds, tr)
		}
	case "incremental_events":
		o, err = runIncremental(ctx, seed, seconds, tr)
	case "serve_online":
		o, err = runServe(ctx, seed, seconds, tr)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if traced {
		o.metrics["bench.calib_ms_before"] = calibBefore
		o.metrics["bench.calib_ms_after"] = calibrate()
		o.metrics["bench.peak_rss_mb"] = peakRSSMB()
		if err := tr.writeChrome(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
			return err
		}
	}

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok && !traced {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", name, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-32s %16.6g %s\n", d.Name, v, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func runOrTraceBatch[T any](ctx context.Context, tk *task[T], seconds float64, tr *tracer) (*outcome, error) {
	if tr != nil {
		return traceBatch(ctx, tk, tr)
	}
	return runBatch(ctx, tk, seconds)
}

// runAll runs every workload in its own child process and returns their
// results by workload name.
func runAll(seed int64, seconds float64, trace int, outDir string) (map[string]result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make(map[string]result, len(workloads))
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.Name)
		cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--out", outDir)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		err := cmd.Run()
		os.Stdout.Write(stdout.Bytes())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", w.Name, err)
		}
		out[w.Name] = res
	}
	return out, nil
}

// runSelfcheck runs the untraced benchmark twice on the same code and prints,
// per metric and workload, the relative gap between the two runs next to the
// metric's bound — how a reader tells noise from change.
func runSelfcheck(seed int64, seconds float64) error {
	first, err := runAll(seed, seconds, 0, "")
	if err != nil {
		return err
	}
	second, err := runAll(seed, seconds, 0, "")
	if err != nil {
		return err
	}
	fmt.Printf("\n%-20s %-22s %14s %14s %8s %8s\n", "workload", "metric", "run 1", "run 2", "gap", "bound")
	within := true
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := first[w.Name].Metrics[d.Name].Value, second[w.Name].Metrics[d.Name].Value
			// The gap is signed so that positive means run 2 is worse.
			gap := (b - a) / a
			if d.Better == "higher" {
				gap = -gap
			}
			mark := ""
			if gap > d.Bound {
				mark = "  OUTSIDE"
				within = false
			}
			fmt.Printf("%-20s %-22s %14.6g %14.6g %+7.2f%% %7.2f%%%s\n", w.Name, d.Name, a, b, 100*gap, 100*d.Bound, mark)
		}
	}
	if !within {
		return fmt.Errorf("selfcheck: two runs of the same code differ by more than a bound")
	}
	return nil
}
