package lf

import (
	"context"
	"fmt"
	"iter"
	"strings"
	"time"

	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/remote"
	"repro/internal/obs"
	lfapi "repro/pkg/drybell/lf"
)

// This file is the labeling-function side of the remote-worker deployment
// contract. The coordinator stamps a code key into every vote job
// (Job.Code); a worker process registers the matching implementation via
// RegisterVoteJobs and resolves the key at lease time. The key embeds the
// ordered function-set names, so a worker built from a different set — or
// the same set in a different order, which would scramble the columnar row
// layout — fails loudly with a deployment-skew error instead of silently
// producing misaligned votes.

// FusedVoteCode is the job-code key for the fused vote job over the named
// function set (order-sensitive: it fixes the vote row layout).
func FusedVoteCode(names []string) string {
	return "lf-votes:" + strings.Join(names, "\x1f")
}

// RegisterVoteJobs registers the vote job a coordinator dispatches for this
// labeling-function set, under the code key the Executor stamps: one key per
// function set. lfs must be the same functions in the same order as the
// coordinator's set — the key enforces this by construction — and decode
// must likewise match the coordinator's Executor configuration.
//
// Functions needing a corpus-level fit pass (lfapi.CorpusFitter) fit
// lazily inside Build, streaming the staged corpus through the worker's
// filesystem — over the coordinator's DFS gateway in a real deployment —
// so a remote worker reproduces the two-pass shape of §5.1 without any
// coordinator-side state shipping.
func RegisterVoteJobs[T any](reg *remote.Registry, lfs []lfapi.LF[T], decode func([]byte) (T, error)) error {
	return reg.Register(FusedVoteCode(lfapi.Names(lfs)), remote.JobCode{
		Build: func(ctx context.Context, fs dfs.FS, inputBase string) (mapreduce.Mapper, error) {
			if _, err := fitAll(ctx, lfs, fs, inputBase, decode); err != nil {
				return nil, err
			}
			return newFusedTask(ctx, lfs, decode), nil
		},
	})
}

// corpusFit is what fitAll did for one function: whether it ran the
// function's corpus-fit pass, and how long that took.
type corpusFit struct {
	fitted bool
	took   time.Duration
}

// fitAll runs the corpus-fit pass for every unfitted CorpusFitter in lfs
// against the staged corpus at inputBase, each under an "lf.fit <name>"
// span. It is the one fit loop: the coordinator's runFused and a remote
// worker's Build both call it. A delta run fits over the delta corpus only —
// corpus-level statistics from the base run are reused via Fitted().
func fitAll[T any](ctx context.Context, lfs []lfapi.LF[T], fs dfs.FS, inputBase string, decode func([]byte) (T, error)) ([]corpusFit, error) {
	fits := make([]corpusFit, len(lfs))
	for j, f := range lfs {
		fitter, ok := f.(lfapi.CorpusFitter[T])
		if !ok || fitter.Fitted() {
			continue
		}
		name := f.LFMeta().Name
		_, span := obs.StartSpan(ctx, "lf.fit "+name)
		start := time.Now() //drybellvet:wallclock — report durations only
		err := fitter.FitCorpus(ctx, corpusSeq(fs, inputBase, decode))
		fits[j] = corpusFit{fitted: true, took: time.Since(start)}
		span.EndErr(err)
		if err != nil {
			return nil, fmt.Errorf("lf: fit %s: %w", name, err)
		}
	}
	return fits, nil
}

// corpusSeq streams the decoded staged corpus at inputBase, shard by
// shard, in record order — the first pass of two-pass functions (fitAll).
// Iteration order is per-shard, not the original staging order, which
// aggregation cannot observe.
func corpusSeq[T any](fs dfs.FS, inputBase string, decode func([]byte) (T, error)) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		var zero T
		err := mapreduce.EachShard(fs, inputBase, func(_, _ int, recs [][]byte) bool {
			for _, rec := range recs {
				x, err := decode(rec)
				if err != nil {
					yield(zero, err)
					return false
				}
				if !yield(x, nil) {
					return false
				}
			}
			return true
		})
		if err != nil {
			yield(zero, err)
		}
	}
}
