package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/serving"
	"repro/pkg/drybell"
)

// runAppend is -mode append: stage the next k synthetic documents as a
// corpus delta on the shared filesystem, for a continuous trainer (possibly
// in another process) to pick up. Because the generators are prefix-stable,
// the appender only needs the same -task/-docs/-seed as the trainer to
// produce exactly the documents that come next.
func runAppend(ctx context.Context, fsys drybell.FS, observer *drybell.Observer,
	task, model string, n int, seed int64, steps, retries, k int) error {
	p, err := trainPipeline(fsys, observer, model, steps, retries, false, nil)
	if err != nil {
		return err
	}
	trainDocs, _, _, err := syntheticCorpus(task, n, seed, 0)
	if err != nil {
		return err
	}
	total, err := p.CorpusRows()
	if err != nil {
		return fmt.Errorf("append needs a trained base corpus under -root (run -mode train first): %w", err)
	}
	extraSoFar := total - len(trainDocs)
	if extraSoFar < 0 {
		return fmt.Errorf("staged corpus has %d rows but task %q with -docs %d -seed %d stages %d; append would corrupt the ledger",
			total, task, n, seed, len(trainDocs))
	}
	_, _, appended, err := syntheticCorpus(task, n, seed, extraSoFar+k)
	if err != nil {
		return err
	}
	g, err := p.StageDelta(ctx, drybell.SliceSource(appended[extraSoFar:]))
	if err != nil {
		return err
	}
	fmt.Printf("staged corpus generation %d: %d documents at row %d\n", g.Gen, g.Records, g.StartRow)
	return nil
}

// runContinuous is -mode train -continuous: after ensuring a promoted base
// model exists, watch the corpus manifest and advance the pipeline by each
// batch of staged deltas — delta-only LF execution, warm-start label-model
// training, classifier retrain, dev validation, and promotion — so served
// labels stay minutes, not a full batch run, behind the corpus.
func runContinuous(ctx context.Context, fsys drybell.FS, reg *serving.FSRegistry, observer *drybell.Observer,
	task, model string, runners []apps.DocLF, bigrams bool, n int, seed int64, steps, retries int,
	resume bool, pool *drybell.RemotePool, inc incrementalFlags) error {
	trainBase, dev, _, err := syntheticCorpus(task, n, seed, 0)
	if err != nil {
		return err
	}
	if _, err := reg.Live(model); err != nil {
		fmt.Printf("no live %s; running the base train first...\n", model)
		version, err := train(ctx, fsys, reg, observer, task, model, runners, bigrams, n, seed, steps, retries, resume, true, pool)
		if err != nil {
			return err
		}
		fmt.Printf("base model %s v%d promoted\n", model, version)
	}
	p, err := trainPipeline(fsys, observer, model, steps, retries, false, pool)
	if err != nil {
		return err
	}

	met := observer.Metrics
	roundsTotal := met.Counter("continuous_rounds_total",
		"Incremental rounds completed by the continuous-training loop.")
	promotions := met.Counter("continuous_promotions_total",
		"Model versions promoted by the continuous-training loop.")
	vetoes := met.Counter("continuous_validation_vetoes_total",
		"Candidate models that failed dev validation and were not promoted.")
	devAccuracy := met.Gauge("continuous_dev_accuracy",
		"Dev-set accuracy of the last candidate the continuous loop trained.")

	// The vote store records how far execution has progressed, so every
	// poll asks it rather than counting rounds: resuming against existing
	// state must not re-run already-published deltas, and a delta staged
	// after this poll's ledger read is executed by the round it starts.
	done, err := p.ExecutedGeneration()
	if err != nil {
		return err
	}
	fmt.Printf("watching the corpus manifest every %v (executed through generation %d); append deltas with -mode append\n",
		inc.watch, done)
	completed := 0
	for {
		gens, err := p.CorpusGenerations()
		if err != nil {
			return err
		}
		if done, err = p.ExecutedGeneration(); err != nil {
			return err
		}
		if len(gens) <= done {
			select {
			case <-ctx.Done():
				fmt.Println("signal received; continuous loop exiting")
				return nil
			case <-time.After(inc.watch):
			}
			continue
		}

		res, err := p.IncrementalRun(ctx, runners)
		if err != nil {
			return err
		}
		extra := len(res.Posteriors) - len(trainBase)
		if extra < 0 {
			return fmt.Errorf("view has %d rows, below the %d-row base; the continuous loop only follows appended deltas", len(res.Posteriors), len(trainBase))
		}
		_, _, appended, err := syntheticCorpus(task, n, seed, extra)
		if err != nil {
			return err
		}
		stagedDocs := append(append([]*corpus.Document(nil), trainBase...), appended...)
		clf, err := drybell.TrainContentClassifier(stagedDocs, res.Posteriors, dev, drybell.ContentTrainConfig{
			FeatureDim: 1 << 16, Bigrams: bigrams, Iterations: 10 * len(stagedDocs), Seed: seed + 3,
		})
		if err != nil {
			return err
		}
		m, err := clf.Evaluate(dev)
		if err != nil {
			return err
		}
		acc := float64(m.TP+m.TN) / float64(m.TP+m.FP+m.TN+m.FN)
		devAccuracy.Set(acc)
		roundsTotal.Inc()
		completed++
		fmt.Printf("round %d: generations %v (%d delta docs, %d delta tasks, %.0fs stale), warm start %v (%d iterations), dev accuracy %.3f F1 %.3f\n",
			completed, res.Generations, res.DeltaExamples, res.DeltaTaskAttempts, res.StalenessSeconds,
			res.WarmStarted, res.WarmIterations, acc, m.F1)

		if inc.minDevAcc > 0 && acc < inc.minDevAcc {
			vetoes.Inc()
			fmt.Printf("candidate vetoed: dev accuracy %.3f below -min-dev-accuracy %.3f; keeping the live version\n", acc, inc.minDevAcc)
		} else {
			version, err := stageVersion(fsys, reg, model, clf, res.Model, dev)
			if err != nil {
				return err
			}
			if err := promoteVersion(ctx, reg, model, inc.promoteURL, version); err != nil {
				return err
			}
			promotions.Inc()
			fmt.Printf("promoted %s v%d\n", model, version)
		}
		if inc.rounds > 0 && completed >= inc.rounds {
			fmt.Printf("completed %d rounds; exiting\n", completed)
			return nil
		}
	}
}

// promoteVersion makes the staged version live: directly in the shared
// registry, or — when a serve daemon's URL is configured — through its
// /v1/promote endpoint so the hot-swap happens immediately rather than at
// the daemon's next reload.
func promoteVersion(ctx context.Context, reg *serving.FSRegistry, model, promoteURL string, version int) error {
	if promoteURL == "" {
		return reg.Promote(model, version)
	}
	body := fmt.Sprintf(`{"version":%d}`, version)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, promoteURL+"/v1/promote", bytes.NewBufferString(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("promote %s v%d via %s: %w", model, version, promoteURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("promote %s v%d via %s: HTTP %s", model, version, promoteURL, resp.Status)
	}
	return nil
}
