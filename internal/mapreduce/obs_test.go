package mapreduce

import (
	"context"
	"testing"

	"repro/internal/dfs"
	"repro/internal/obs"
)

// attr returns the value of the named attribute, or nil.
func attr(s obs.SpanData, key string) any {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// findJobSpan returns the "mapreduce:<name>" job span from the snapshot.
func findJobSpan(t *testing.T, spans []obs.SpanData, name string) obs.SpanData {
	t.Helper()
	for _, s := range spans {
		if s.Name == "mapreduce:"+name {
			return s
		}
	}
	t.Fatalf("no job span %q in trace (%d spans)", "mapreduce:"+name, len(spans))
	return obs.SpanData{}
}

// TestKilledAttemptSpanError: an attempt killed by an injected filesystem
// fault closes its span with error status and a "failed" outcome, while the
// retry wins — so the trace shows both the failure and the recovery. Every
// attempt span, the failed one and its retry included, is a child of the
// job span.
func TestKilledAttemptSpanError(t *testing.T) {
	fs := dfs.NewFaultFS(dfs.NewMem(), 7)
	stageWords(t, fs, "in/w", faultyWords(), 4)
	// Exactly one attempt's checkpoint write fails: one killed attempt, then
	// a clean retry.
	fs.FailNext(dfs.OpWrite, "_attempts/", 1)

	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	job := upperJob(fs, "in/w", 2)
	job.Resume = true
	res, err := RunContext(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Injected() != 1 {
		t.Fatalf("injected faults = %d, want 1", fs.Injected())
	}

	spans := tr.Snapshot()
	jobSpan := findJobSpan(t, spans, job.Name)
	var failed, retried bool
	attempts := 0
	for _, s := range spans {
		if attr(s, "task") == nil {
			continue
		}
		attempts++
		if s.Parent != jobSpan.ID {
			t.Errorf("attempt span %q parent = %d, want job span %d", s.Name, s.Parent, jobSpan.ID)
		}
		if attr(s, "outcome") == "failed" {
			if s.Err == "" {
				t.Errorf("failed attempt span %q closed without error status", s.Name)
			}
			failed = true
			// Its retry must appear as a sibling with a higher attempt
			// number that eventually won.
			for _, r := range spans {
				if r.Parent == s.Parent && attr(r, "task") == attr(s, "task") &&
					r.ID != s.ID && attr(r, "outcome") == "won" {
					retried = true
				}
			}
		}
	}
	if !failed {
		t.Fatal("no attempt span recorded a \"failed\" outcome despite the injected fault")
	}
	if !retried {
		t.Error("killed attempt has no winning sibling span")
	}
	if res.Attempts != res.MapTasks+1 {
		t.Errorf("attempts = %d, want %d (one retry)", res.Attempts, res.MapTasks+1)
	}
	if attempts != res.Attempts {
		t.Errorf("%d attempt spans, want one per attempt (%d)", attempts, res.Attempts)
	}
}
