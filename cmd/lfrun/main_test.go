package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/pkg/drybell/lf"
)

// TestTaskResolution: -list prints every function of the topic and product
// sets, and any other task — events included, whose records are not
// documents — is refused before anything else is checked, with an error
// naming the tasks lfrun does run.
func TestTaskResolution(t *testing.T) {
	ctx := context.Background()
	for task, lfs := range map[string][]lf.LF[*corpus.Document]{
		"topic":   apps.TopicLFs(nil, 0.02, 1),
		"product": apps.ProductLFs(nil, 1),
	} {
		var out bytes.Buffer
		if err := run(ctx, &out, "", task, "", "", 8, 0, true, ""); err != nil {
			t.Fatalf("-task %s -list: %v", task, err)
		}
		listed := map[string]bool{}
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
			listed[strings.Fields(line)[0]] = true
		}
		if len(listed) != len(lfs) {
			t.Errorf("-task %s -list printed %d functions, want %d", task, len(listed), len(lfs))
		}
		for _, f := range lfs {
			if name := f.LFMeta().Name; !listed[name] {
				t.Errorf("-task %s -list is missing %s", task, name)
			}
		}
	}
	for _, task := range []string{"events", "bogus"} {
		for _, list := range []bool{true, false} {
			var out bytes.Buffer
			err := run(ctx, &out, "", task, "some_lf", "", 8, 0, list, "")
			if err == nil || !strings.Contains(err.Error(), task) ||
				!strings.Contains(err.Error(), "topic") || !strings.Contains(err.Error(), "product") {
				t.Errorf("-task %s (list %v): error %v, want one naming %s, topic and product", task, list, err, task)
			}
			if out.Len() != 0 {
				t.Errorf("-task %s (list %v) printed %q before refusing", task, list, out.String())
			}
		}
	}
}
