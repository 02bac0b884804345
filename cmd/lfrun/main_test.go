package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/mapreduce"
	"repro/pkg/drybell"
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

// TestInputStagesRecords: lfrun decodes each JSONL line of -input and stages
// the document's binary record, and the votes over that staging are the votes
// over the JSON lines staged as they are.
func TestInputStagesRecords(t *testing.T) {
	ctx := context.Background()
	docs, err := corpus.GenerateTopic(corpus.DefaultTopicSpec(60, 5))
	if err != nil {
		t.Fatal(err)
	}
	lines, err := corpus.MarshalDocuments(docs)
	if err != nil {
		t.Fatal(err)
	}
	input := filepath.Join(t.TempDir(), "docs.jsonl")
	if err := os.WriteFile(input, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	const name = "ner_known_celebrity"
	root := t.TempDir()
	var out bytes.Buffer
	if err := run(ctx, &out, root, "topic", name, input, 4, 1, false, ""); err != nil {
		t.Fatalf("lfrun: %v\n%s", err, out.String())
	}

	codec := drybell.WithCodec(func(d *corpus.Document) ([]byte, error) { return d.Marshal() }, corpus.UnmarshalDocument)
	fsys, err := drybell.NewDiskFS(root)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := drybell.New[*corpus.Document](codec, drybell.WithFS(fsys))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := mapreduce.ReadStaged(fsys, staged.InputPath())
	if err != nil || len(recs) != len(docs) {
		t.Fatalf("staged %d records, %v; want %d", len(recs), err, len(docs))
	}
	for i, d := range docs {
		want, _ := d.Marshal()
		if !bytes.Equal(recs[i], want) || recs[i][0] == lines[i][0] {
			t.Fatalf("record %d staged as %.40q, want the binary record %.40q", i, recs[i], want)
		}
	}
	got, err := staged.LoadMatrix([]string{name})
	if err != nil {
		t.Fatal(err)
	}

	ref, err := drybell.New[*corpus.Document](codec, drybell.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.StageRecords(ctx, drybell.SliceSource(lines)); err != nil {
		t.Fatal(err)
	}
	set, err := taskSet("topic")
	if err != nil {
		t.Fatal(err)
	}
	chosen, _ := set.Get(name)
	want, _, err := ref.ExecuteLFs(ctx, []drybell.LF[*corpus.Document]{chosen})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("votes over the staged records differ from votes over the JSON lines")
	}
}
