package mapreduce

import (
	"context"
	"fmt"
	"testing"
	"time"

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

// TestSpeculativeAttemptSpans: running a straggling job under a tracer, the
// rescued task shows up as exactly two sibling attempt spans under the job
// span — the speculative copy marked speculative=true — with exactly one
// "won" outcome between them.
func TestSpeculativeAttemptSpans(t *testing.T) {
	fs := dfs.NewMem()
	var recs [][]byte
	for i := 0; i < 20; i++ {
		recs = append(recs, []byte(fmt.Sprintf("r%03d", i)))
	}
	if err := WriteInput(fs, "in/r", recs, 4); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	res, err := RunContext(ctx, Job{
		Name: "straggle", FS: fs, InputBase: "in/r",
		Mapper:         slowFirstMapper{},
		Parallelism:    4,
		StragglerAfter: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeculativeAttempts == 0 {
		t.Fatal("no speculative attempt launched; test is vacuous")
	}

	spans := tr.Snapshot()
	job := findJobSpan(t, spans, "straggle")
	var attempts []obs.SpanData
	for _, s := range spans {
		if attr(s, "task") == "map-00000" {
			if s.Parent != job.ID {
				t.Errorf("attempt span %q parent = %d, want job span %d", s.Name, s.Parent, job.ID)
			}
			attempts = append(attempts, s)
		}
	}
	if len(attempts) != 2 {
		t.Fatalf("straggling task recorded %d attempt spans, want 2 siblings", len(attempts))
	}
	var won, speculative int
	for _, s := range attempts {
		switch attr(s, "outcome") {
		case "won":
			won++
		case "lost", "canceled":
		default:
			t.Errorf("attempt span %q has unexpected outcome %v", s.Name, attr(s, "outcome"))
		}
		if attr(s, "speculative") == true {
			speculative++
		}
	}
	if won != 1 {
		t.Errorf("%d attempt spans marked \"won\", want exactly 1", won)
	}
	if speculative != 1 {
		t.Errorf("%d attempt spans marked speculative, want exactly 1", speculative)
	}
}

// TestKilledAttemptSpanError: an attempt killed by an injected filesystem
// fault closes its span with error status and a "failed" outcome, while the
// retry wins — so the trace shows both the failure and the recovery.
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
	var failed, retried bool
	for _, s := range spans {
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
}
