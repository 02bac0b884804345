package mapreduce

import (
	"fmt"
	"hash/fnv"
	"path"
	"strings"

	"repro/internal/dfs"
)

// manifest is the per-task checkpoint record the coordinator commits to the
// DFS after promoting a task's values checkpoint. A later run with
// Job.Resume set skips every task whose manifest is present, keyed to the
// same job fingerprint, and whose promoted checkpoint still exists — the
// paper's "re-run only what's missing" recovery (§5.4).
type manifest struct {
	// Key fingerprints the job configuration (see resumeKey); a manifest
	// written by a logically different job is ignored.
	Key string `json:"key"`
	// Task is the task ID, e.g. "map-00003".
	Task string `json:"task"`
	// Index is the task's input shard index.
	Index int `json:"index"`
	// Records is the number of input records the task processed.
	Records int `json:"records"`
	// Paths holds the promoted values checkpoint, _tasks/<task>.out.
	Paths []string `json:"paths"`
	// Counters are the winning attempt's counter increments, replayed into
	// the job counters when the task is skipped on resume. Clock counters
	// are left out (see ClockCounterPrefix).
	Counters map[string]int64 `json:"counters,omitempty"`
}

// ClockCounterPrefix marks counters that measure wall time rather than count
// results. They reach the job's totals like any counter but are never
// checkpointed: a manifest stays a function of the task's input, and a task
// resumed from one adds no time to a run it did not execute in.
const ClockCounterPrefix = "clock/"

// checkpointed returns the counters a manifest records: all but the clock
// counters.
func checkpointed(counters map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(counters))
	//drybellvet:ordered — map-to-map filter, order-insensitive
	for k, v := range counters {
		if !strings.HasPrefix(k, ClockCounterPrefix) {
			out[k] = v
		}
	}
	return out
}

// manifestDir is the DFS directory manifests live under, inside the job's
// scratch area.
func manifestDir(scratch string) string { return scratch + "/_manifest/" } //drybellvet:notapath — List-prefix form; the trailing slash is significant

// manifestPath is one task's manifest location.
func manifestPath(scratch, taskID string) string {
	return manifestDir(scratch) + taskID + ".json"
}

// taskOutputPath is where a job running with Resume checkpoints a completed
// task's emitted values.
func taskOutputPath(scratch, taskID string) string {
	return path.Join(scratch, "_tasks", taskID+".out")
}

// writeManifest commits one task's checkpoint. Best-effort by design: a
// missing manifest only costs a re-execution on resume, never correctness,
// so callers ignore the error under fault injection.
func writeManifest(fs dfs.FS, scratch string, m *manifest) error {
	_, err := dfs.WriteJSON(fs, manifestPath(scratch, m.Task), m)
	return err
}

// loadManifests reads every manifest under the scratch area that matches the
// job fingerprint and whose promoted outputs all still exist. Mismatched or
// stale entries are skipped (and re-executed), not treated as errors.
func loadManifests(fs dfs.FS, scratch, key string) (map[string]*manifest, error) {
	paths, err := fs.List(manifestDir(scratch))
	if err != nil {
		return nil, err
	}
	out := make(map[string]*manifest)
	for _, p := range paths {
		if !strings.HasSuffix(p, ".json") {
			continue
		}
		var m manifest // unreadable, as after a racing cleanup, is absent
		if _, err := dfs.ReadJSON(fs, p, &m); err != nil || m.Key != key || m.Task == "" {
			continue
		}
		ok := true
		for _, op := range m.Paths {
			if _, err := fs.Stat(op); err != nil {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		out[m.Task] = &m
	}
	return out, nil
}

// resumeKey fingerprints the parts of a job that determine its output: a
// manifest is only trusted when name, input base, sharding, the input's set
// digest (its commit record's) and the caller's own key (e.g. the
// labeling-function set) all match.
func (job *Job) resumeKey(numInputShards int, digest uint64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%016x|%s", job.Name, job.InputBase, numInputShards, digest, job.ResumeKey)
	return fmt.Sprintf("%016x", h.Sum64())
}
