package core

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/obs"
)

// TestDenoisePersistObservable: a batch run and an incremental round go
// through one train→persist tail, so both are observable the same way — a
// stage.denoise and a stage.persist span directly under the run's root span,
// the persist span counting every row, and one pipeline_stage_seconds
// observation per stage. The batch run also delivers a StageDenoise and a
// StagePersist event over every row to its hook.
func TestDenoisePersistObservable(t *testing.T) {
	ctx := context.Background()
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 330, PositiveRate: 0.05, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	lfs := apps.TopicLFs(nil, 0.02, 1)
	fs := dfs.NewMem()

	for _, tc := range []struct {
		name, root string
		rows       int
		hooked     bool // the run takes a StageHook
		run        func(cfg Config[*corpus.Document], hook StageHook) error
	}{
		{"run", "pipeline.run", 300, true, func(cfg Config[*corpus.Document], hook StageHook) error {
			_, err := RunObserved(ctx, cfg, Examples(docs[:300]), lfs, hook)
			return err
		}},
		{"incremental", "pipeline.incremental", 330, false, func(cfg Config[*corpus.Document], _ StageHook) error {
			if _, err := StageDelta(ctx, cfg, Examples(docs[300:]), nil); err != nil {
				return err
			}
			_, err := IncrementalRun(ctx, cfg, lfs, nil)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := topicConfig(fs)
			cfg.WorkDir = "drybell" // pin the default so LabelsBase below resolves
			cfg.Trainer = TrainerSamplingFreeFast
			cfg.Obs = obs.NewObserver()
			events := map[StageName]StageEvent{}
			if err := tc.run(cfg, func(ev StageEvent) { events[ev.Stage] = ev }); err != nil {
				t.Fatal(err)
			}

			byName := map[string]obs.SpanData{}
			for _, s := range cfg.Obs.Trace.Snapshot() {
				byName[s.Name] = s
			}
			root, ok := byName[tc.root]
			if !ok {
				t.Fatalf("no %s span", tc.root)
			}
			for _, stage := range []StageName{StageDenoise, StagePersist} {
				span, ok := byName["stage."+string(stage)]
				if !ok {
					t.Errorf("no stage.%s span", stage)
				} else if span.Parent != root.ID {
					t.Errorf("stage.%s is not a child of %s", stage, tc.root)
				}
				h := cfg.Obs.Metrics.Histogram("pipeline_stage_seconds", "Pipeline stage wall time in seconds.",
					obs.DefLatencyBuckets, obs.Label{Key: "stage", Value: string(stage)})
				if h.Count() != 1 {
					t.Errorf("pipeline_stage_seconds{stage=%q} has %d observations, want 1", stage, h.Count())
				}
				if !tc.hooked {
					continue
				}
				ev, ok := events[stage]
				if !ok {
					t.Errorf("no %s event delivered", stage)
				} else if ev.Err != nil || ev.Examples != tc.rows {
					t.Errorf("%s event = %d examples, err %v; want %d", stage, ev.Examples, ev.Err, tc.rows)
				}
			}
			if labels := spanInt(byName["stage.persist"], "labels"); labels != tc.rows {
				t.Errorf("stage.persist span counts %d labels, want %d", labels, tc.rows)
			}
			if tc.hooked && events[StagePersist].LabelsPath != cfg.LabelsBase() {
				t.Errorf("persist event names %q, want %q", events[StagePersist].LabelsPath, cfg.LabelsBase())
			}
		})
	}
}

// spanInt is the integer attribute key of span, -1 when it has none.
func spanInt(span obs.SpanData, key string) int {
	for _, a := range span.Attrs {
		if a.Key == key {
			if v, ok := a.Value.(int64); ok {
				return int(v)
			}
		}
	}
	return -1
}
