package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"

	"repro/internal/dfs"
	"repro/pkg/drybell"
	"repro/pkg/drybell/lf"
)

// outcome is what one workload run reports: operations attempted and failed
// (outputs are correct when none failed), and its metrics by name.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

// endToEnd fills the end-to-end metrics every workload shares. The three
// timings are reported at nominal host speed (see hostSpeed); the `#` lines
// carry them as measured.
func (o *outcome) endToEnd(docs int, tot *opTotals, latencyMs []float64, f1 float64, setupS float64, host *hostSpeed) {
	n, k := float64(docs), host.factor()
	lat := quantiles(latencyMs, 0.25, 0.5, 0.75)
	o.metrics["docs_per_s"] = n / (tot.seconds() * k)
	o.metrics["latency_p50_ms"] = lat[1] * k
	o.metrics["allocs_per_doc"] = float64(tot.mallocs) / n
	o.metrics["alloc_bytes_per_doc"] = float64(tot.bytes) / n
	o.metrics["posterior_f1"] = f1
	o.metrics["ok_share"] = float64(o.attempted-o.failed) / float64(o.attempted)
	o.metrics["setup_s"] = setupS * k
	fmt.Printf("# as measured: docs_per_s %.6g latency_ms p25 %.3f p50 %.3f p75 %.3f over %d operations, %.1f s timed, setup_s %.4f\n",
		n/tot.seconds(), lat[0], lat[1], lat[2], len(latencyMs), tot.seconds(), setupS)
	fmt.Printf("# host: kernels cpu %.1f mem %.1f json %.1f ms over %d samples, geometric mean %.2f ms against a nominal %.0f: timings x %.4f\n",
		median(host.cpu), median(host.mem), median(host.json), len(host.cpu), host.kernelMs(), kernelNominalMs, k)
}

// runBatch is batch_topic and batch_events: repeated cold Pipeline.Run calls,
// each on a fresh in-memory filesystem.
func runBatch[T any](ctx context.Context, tk *task[T], seconds float64) (*outcome, error) {
	var host hostSpeed
	st, setupS, err := medianSetup(&host, func() (setup[T], error) { return tk.batchSetup(ctx) }, func(setup[T]) {})
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: map[string]float64{}}
	var tot opTotals
	var first [sha256.Size]byte
	var posteriors []float64
	for rep := 0; rep < minReps || tot.seconds() < seconds; rep++ {
		fs := dfs.NewMem()
		p, err := tk.newPipeline(fs)
		if err != nil {
			return nil, err
		}
		host.probe()
		runtime.GC()
		var res *drybell.Result
		s, err := timeOp(func() error {
			var err error
			res, err = p.Run(ctx, drybell.SliceSource(tk.docs), st.lfs)
			return err
		})
		tot.add(s)
		o.attempted++
		// A repetition fails on error or when its persisted labels differ
		// from the first repetition's by a single byte.
		digest, derr := labelsDigest(fs, p.LabelsPath())
		if rep == 0 {
			first = digest
		}
		if err != nil || derr != nil || digest != first || len(res.Posteriors) != len(tk.docs) {
			fmt.Printf("# repetition %d failed: run %v, digest %v\n", rep, err, derr)
			o.failed++
			continue
		}
		posteriors = res.Posteriors
	}
	if posteriors == nil {
		return nil, fmt.Errorf("no repetition succeeded")
	}
	score, err := f1(posteriors, tk.gold(tk.docs))
	if err != nil {
		return nil, err
	}
	o.endToEnd(len(tk.docs)*o.attempted, &tot, tot.wallMs, score, setupS, &host)
	return o, nil
}

// traceBatch is the traced run of a batch workload: repetitions with the
// stages called one by one under spans, each preceded by a whole Run as the
// untraced reference, then the single-layer probes.
func traceBatch[T any](ctx context.Context, tk *task[T], tr *tracer) (*outcome, error) {
	st, err := tk.batchSetup(ctx)
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: map[string]float64{}}
	m := o.metrics
	gcBefore := readMem().gcs

	var (
		fs      *countingFS
		p       *drybell.Pipeline[T]
		matrix  *drybell.Matrix
		lm      *drybell.Model
		report  *drybell.Report
		counts  fsCounts
		runMs   []float64 // whole untraced Runs
		stageMs []float64 // per traced repetition, the sum of its stage spans
		repMs   []float64
	)
	for rep := 0; rep < tracedReps; rep++ {
		// An untraced Run before every traced repetition, so that host drift
		// during the run lands on both sides of the comparison.
		plain, err := tk.newPipeline(dfs.NewMem())
		if err != nil {
			return nil, err
		}
		runtime.GC()
		s, err := timeOp(func() error {
			_, err := plain.Run(ctx, drybell.SliceSource(tk.docs), st.lfs)
			return err
		})
		if err != nil {
			return nil, err
		}
		runMs = append(runMs, ms(s.wall))

		fs = &countingFS{inner: dfs.NewMem()}
		if p, err = tk.newPipeline(fs); err != nil {
			return nil, err
		}
		runtime.GC()
		var posteriors []float64
		root := tr.begin("rep", 0, rep)
		stages := []struct {
			name string
			fn   func() error
		}{
			{"core.stage", func() error { _, err := p.Stage(ctx, drybell.SliceSource(tk.docs)); return err }},
			{"lf.execute", func() (err error) { matrix, report, err = p.ExecuteLFs(ctx, st.lfs); return }},
			{"lf.analyze", func() error { _, err := p.Analyze(matrix, lf.Metas(st.lfs)); return err }},
			{"labelmodel.train", func() (err error) { lm, posteriors, err = p.Denoise(ctx, matrix); return }},
			{"core.persist", func() error { _, err := p.Persist(ctx, posteriors); return err }},
		}
		var stageSum float64
		for _, stg := range stages {
			id := tr.begin(stg.name, root, rep)
			err := stg.fn()
			stageSum += ms(tr.end(id))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", stg.name, err)
			}
		}
		repMs = append(repMs, ms(tr.end(root)))
		stageMs = append(stageMs, stageSum)
		counts = fs.counts()
		o.attempted++
	}
	m["bench.gc_cycles"] = float64(readMem().gcs - gcBefore)

	for _, name := range []string{"core.stage", "lf.execute", "labelmodel.train", "core.persist"} {
		m[name+"_ms"] = median(tr.durationsMs(name))
	}
	m["core.unattributed_pct"] = 100 * (median(runMs) - median(stageMs)) / median(runMs)
	m["bench.trace_overhead_pct"] = 100 * (median(repMs) - median(runMs)) / median(runMs)
	m["lf.task_attempts"] = float64(report.TaskAttempts)
	m["dfs.ops_per_rep"] = float64(counts.ops)
	m["dfs.bytes_written_per_rep"] = float64(counts.written)
	m["dfs.bytes_read_per_rep"] = float64(counts.read)

	names := drybell.Names(st.lfs)
	if m["lf.load_matrix_ms"], err = tr.probe("lf.load_matrix", func() error { _, err := p.LoadMatrix(names); return err }); err != nil {
		return nil, err
	}
	if err := tk.probes(ctx, tr, m, p, matrix, lm); err != nil {
		return nil, err
	}
	return o, nil
}
