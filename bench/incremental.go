package main

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/labelmodel"
	"repro/pkg/drybell"
)

// incrementalSetup is set-up for incremental_events: labeling functions, the
// base Run, and one warm-up round followed by a compaction, so the delta
// path, the warm-start trainer and the compactor have all run once and the
// timed rounds start from a flat store.
func incrementalSetup(ctx context.Context, tk *task[*corpus.Event], fs drybell.FS, warmup []*corpus.Event) (setup[*corpus.Event], error) {
	var none setup[*corpus.Event]
	lfs, err := tk.newLFs()
	if err != nil {
		return none, err
	}
	p, err := tk.newPipeline(fs)
	if err != nil {
		return none, err
	}
	if _, err := p.Run(ctx, drybell.SliceSource(tk.docs), lfs); err != nil {
		return none, err
	}
	if _, err := p.StageDelta(ctx, drybell.SliceSource(warmup)); err != nil {
		return none, err
	}
	res, err := p.IncrementalRun(ctx, lfs)
	if err != nil {
		return none, err
	}
	if err := p.Compact(); err != nil {
		return none, err
	}
	return setup[*corpus.Event]{lfs: lfs, p: p, state: res.State}, nil
}

// runIncremental is incremental_events: rounds of StageDelta + IncrementalRun
// over 1 % appends, compacting after every eighth round inside that round's
// time. Rounds run in whole cycles of eight, so every run ends on a flat
// store and sees every chain length equally often.
func runIncremental(ctx context.Context, seed int64, seconds float64, tr *tracer) (*outcome, error) {
	// The generator is prefix-stable: the first incBaseEvents events are the
	// base corpus, the next incDeltaSize the warm-up delta, the rest the
	// timed deltas in order.
	cycles := max(2, int(seconds/incCycleSeconds+0.5))
	if tr != nil {
		cycles = 1
	}
	tk, err := eventsTask(seed, incBaseEvents+incDeltaSize*(1+incCycle*cycles))
	if err != nil {
		return nil, err
	}
	all := tk.docs
	tk.docs = all[:incBaseEvents]
	warmup := all[incBaseEvents : incBaseEvents+incDeltaSize]
	deltas := all[incBaseEvents+incDeltaSize:]

	o := &outcome{metrics: map[string]float64{}}
	m := o.metrics
	var st setup[*corpus.Event]
	var setupS float64
	var counted *countingFS
	var host hostSpeed
	if tr == nil {
		st, setupS, err = medianSetup(&host, func() (setup[*corpus.Event], error) {
			return incrementalSetup(ctx, tk, dfs.NewMem(), warmup)
		}, func(setup[*corpus.Event]) {})
	} else {
		counted = &countingFS{inner: dfs.NewMem()}
		st, err = incrementalSetup(ctx, tk, counted, warmup)
	}
	if err != nil {
		return nil, err
	}
	p, lfs := st.p, st.lfs
	names := drybell.Names(lfs)
	lmOpts := drybell.LabelModelOptions{Steps: lmSteps, Seed: seed}

	var (
		tot       opTotals
		last      *drybell.IncrementalResult
		prevState = st.state // what the next round's IncrementalRun warm-starts from
		counts    fsCounts
		gensMax   int
		warmIters []float64
		executeMs []float64
	)
	gcBefore := readMem().gcs
	for round := 0; round < incCycle*cycles; round++ {
		delta := deltas[round*incDeltaSize : (round+1)*incDeltaSize]
		compact := round%incCycle == incCycle-1
		if tr == nil {
			host.probe()
		}
		runtime.GC()
		var before fsCounts
		if counted != nil {
			before = counted.counts()
		}
		root := tr.begin("round", 0, round)
		var res *drybell.IncrementalResult
		var incMs float64
		s, err := timeOp(func() error {
			err := tr.do("core.stage", root, round, func() error {
				_, err := p.StageDelta(ctx, drybell.SliceSource(delta))
				return err
			})
			if err != nil {
				return err
			}
			id := tr.begin("core.incremental_run", root, round)
			res, err = p.IncrementalRun(ctx, lfs)
			incMs = ms(tr.end(id))
			if err != nil {
				return err
			}
			if gens, err := p.ExecutedGeneration(); err == nil {
				gensMax = max(gensMax, gens)
			}
			if compact {
				return tr.do("lf.compact", root, round, p.Compact)
			}
			return nil
		})
		tr.end(root)
		tot.add(s)
		o.attempted++
		if err != nil || res.DeltaExamples != len(delta) {
			fmt.Printf("# round %d failed: %v\n", round, err)
			o.failed++
			// The store's state after a failed round is unknown; stop here.
			break
		}
		last = res
		if counted != nil {
			counts = counts.add(counted.counts().sub(before))
		}
		if tr != nil {
			// Replay the round's merge, training and persist on their own, on
			// the state the round left behind; what remains of IncrementalRun
			// is delta execution plus the generation publish.
			warmIters = append(warmIters, float64(res.WarmIterations))
			var loadMs, trainMs, persistMs float64
			if !compact { // after a compaction the chain the round merged is gone
				id := tr.begin("lf.load_matrix", 0, round)
				_, err = p.LoadMatrix(names)
				loadMs = ms(tr.end(id))
				if err != nil {
					return nil, err
				}
			}
			id := tr.begin("labelmodel.train", 0, round)
			_, _, err = labelmodel.TrainSamplingFreeFastWarm(res.Matrix, lmOpts, prevState)
			trainMs = ms(tr.end(id))
			if err != nil {
				return nil, err
			}
			id = tr.begin("core.persist", 0, round)
			_, err = p.Persist(ctx, res.Posteriors)
			persistMs = ms(tr.end(id))
			if err != nil {
				return nil, err
			}
			if !compact {
				executeMs = append(executeMs, incMs-loadMs-trainMs-persistMs)
			}
		}
		prevState = res.State
	}

	// The equivalence the incremental path claims: a cold Run over the grown
	// corpus gives exactly the posteriors the last round persisted. If it
	// does not, every round counts as failed.
	if o.failed == 0 {
		grown := all[:incBaseEvents+incDeltaSize*(1+o.attempted)]
		cold, err := tk.newPipeline(dfs.NewMem())
		if err != nil {
			return nil, err
		}
		ref, err := cold.Run(ctx, drybell.SliceSource(grown), lfs)
		if err != nil {
			return nil, err
		}
		if !equalFloats(ref.Posteriors, last.Posteriors) {
			fmt.Printf("# incremental posteriors differ from a cold run over the grown corpus\n")
			o.failed = o.attempted
		}
	}
	if last == nil {
		return nil, fmt.Errorf("no round succeeded")
	}
	grownGold := tk.gold(all[:len(last.Posteriors)])
	score, err := f1(last.Posteriors, grownGold)
	if err != nil {
		return nil, err
	}

	if tr == nil {
		o.endToEnd(incDeltaSize*o.attempted, &tot, tot.wallMs, score, setupS, &host)
		return o, nil
	}
	rounds := float64(o.attempted)
	m["bench.gc_cycles"] = float64(readMem().gcs - gcBefore)
	m["core.stage_ms"] = median(tr.durationsMs("core.stage"))
	m["core.persist_ms"] = median(tr.durationsMs("core.persist"))
	m["lf.execute_ms"] = median(executeMs)
	m["lf.load_matrix_ms"] = median(tr.durationsMs("lf.load_matrix"))
	m["lf.compact_ms"] = median(tr.durationsMs("lf.compact"))
	m["lf.generations_max"] = float64(gensMax)
	m["lf.task_attempts"] = float64(last.DeltaTaskAttempts)
	m["labelmodel.train_ms"] = median(tr.durationsMs("labelmodel.train"))
	m["labelmodel.warm_iterations"] = median(warmIters)
	m["dfs.ops_per_rep"] = float64(counts.ops) / rounds
	m["dfs.bytes_written_per_rep"] = float64(counts.written) / rounds
	m["dfs.bytes_read_per_rep"] = float64(counts.read) / rounds
	return o, tk.probes(ctx, tr, m, p, last.Matrix, last.Model)
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
