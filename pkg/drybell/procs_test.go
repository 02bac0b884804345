package drybell_test

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/pkg/drybell"
)

// TestRunIndependentOfProcs: what a run persists is a function of the corpus
// and the labeling functions, not of the host's core count. The same 30k-event
// run at GOMAXPROCS 1 and at 4 — default options, so the job's parallelism
// follows it too — must leave byte-identical files, the run's telemetry
// (_obs/) and task checkpoints (_runtime/) aside.
func TestRunIndependentOfProcs(t *testing.T) {
	events, err := corpus.GenerateEvents(corpus.DefaultEventsSpec(30_000, 3))
	if err != nil {
		t.Fatal(err)
	}
	run := func(procs int) (names []string, files map[string][]byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		fs := drybell.NewMemFS()
		p, err := drybell.New[*corpus.Event](
			drybell.WithFS(fs),
			drybell.WithCodec(func(e *corpus.Event) ([]byte, error) { return e.Marshal() }, corpus.UnmarshalEvent),
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(context.Background(), drybell.SliceSource(events), apps.EventLFs(apps.NumEventLFs, 3)); err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		all, err := fs.List("")
		if err != nil {
			t.Fatal(err)
		}
		files = map[string][]byte{}
		for _, name := range all {
			if strings.Contains(name, "/_obs/") || strings.Contains(name, "/_runtime/") {
				continue
			}
			if files[name], err = fs.ReadFile(name); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
		return names, files
	}
	oneNames, one := run(1)
	fourNames, four := run(4)
	if len(oneNames) == 0 || !slices.Equal(oneNames, fourNames) {
		t.Fatalf("GOMAXPROCS 1 persisted %q, GOMAXPROCS 4 %q", oneNames, fourNames)
	}
	for _, name := range oneNames {
		if !bytes.Equal(one[name], four[name]) {
			t.Errorf("%s differs between GOMAXPROCS 1 and 4", name)
		}
	}
}
