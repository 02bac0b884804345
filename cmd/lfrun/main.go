// Command lfrun executes a single labeling function over a staged corpus,
// mirroring the paper's deployment model where "labeling functions are
// independent executables that use a distributed filesystem to share data"
// (§5.4) and each engineer's main file just names the function and runs it
// (§5.1).
//
// The corpus is staged from a JSON-lines file into a disk-backed DFS root,
// the named function runs as its own MapReduce job, its votes are appended to
// the shared vote store as a segment of its own, and the store's column union
// and that segment are printed. Another invocation against the same root —
// even a concurrent one — appends its column next to the first's, a re-run
// replaces it: exactly the loose coupling the paper describes, built on the
// drybell SDK's per-stage API.
//
// Usage:
//
//	lfrun -root /tmp/dfs -task topic -lf ner_no_person -input docs.jsonl
//	lfrun -root /tmp/dfs -task topic -list
//	lfrun -root /tmp/dfs -task topic -lf ner_no_person -trace trace.json
//
// -task names one of the document case studies' labeling-function sets,
// topic or product (internal/apps); any other task is refused before
// anything is staged or run.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/apps"
	"repro/internal/corpus"
	internallf "repro/internal/lf"
	"repro/pkg/drybell"
	"repro/pkg/drybell/lf"
)

func main() {
	var (
		root   = flag.String("root", "", "disk-backed DFS root directory (required)")
		task   = flag.String("task", "topic", "LF set: topic or product")
		name   = flag.String("lf", "", "labeling function name to run")
		input  = flag.String("input", "", "JSON-lines document file to stage (omit if already staged)")
		shards = flag.Int("shards", 8, "input shards when staging")
		par    = flag.Int("parallelism", 0, "simulated cluster width (0 = one node per CPU)")
		list   = flag.Bool("list", false, "list the task's labeling functions and exit")
		trace  = flag.String("trace", "", "write a Chrome trace-event timeline of the run to this file (load in Perfetto)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the context so staging and LF execution abort
	// between records; the DFS commit discipline means no partial shard
	// becomes visible.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, os.Stdout, *root, *task, *name, *input, *shards, *par, *list, *trace); err != nil {
		code := 1
		if errors.Is(err, context.Canceled) {
			code = 130 // conventional interrupted-by-signal exit
		}
		fmt.Fprintf(os.Stderr, "lfrun: %v\n", err)
		os.Exit(code)
	}
}

// taskSet resolves -task to its labeling-function set.
func taskSet(task string) (*lf.Set[*corpus.Document], error) {
	switch task {
	case "topic":
		return apps.TopicSet(nil, 0.02, 1)
	case "product":
		return apps.ProductSet(nil, 1)
	default:
		return nil, fmt.Errorf("unknown task %q (topic or product)", task)
	}
}

// run is the whole command; its report goes to out.
func run(ctx context.Context, out io.Writer, root, task, name, input string, shards, par int, list bool, trace string) error {
	set, err := taskSet(task)
	if err != nil {
		return err
	}
	if list {
		fmt.Fprintf(out, "%-34s %-18s %s\n", "name", "category", "servable")
		for _, m := range set.Metas() {
			fmt.Fprintf(out, "%-34s %-18s %v\n", m.Name, m.Category, m.Servable)
		}
		return nil
	}
	if root == "" {
		return fmt.Errorf("-root is required")
	}
	chosen, ok := set.Get(name)
	if !ok {
		return fmt.Errorf("no labeling function %q in task %s (use -list)", name, task)
	}

	fsys, err := drybell.NewDiskFS(root)
	if err != nil {
		return err
	}
	opts := []drybell.Option{
		drybell.WithCodec(
			func(d *corpus.Document) ([]byte, error) { return d.Marshal() },
			corpus.UnmarshalDocument,
		),
		drybell.WithFS(fsys),
		drybell.WithShards(shards),
	}
	if par > 0 {
		opts = append(opts, drybell.WithParallelism(par))
	}
	var observer *drybell.Observer
	if trace != "" {
		observer = drybell.NewObserver()
		opts = append(opts, drybell.WithObserver(observer))
	}
	p, err := drybell.New[*corpus.Document](opts...)
	if err != nil {
		return err
	}

	if input != "" {
		docs, err := readJSONL(input)
		if err != nil {
			return err
		}
		n, err := p.Stage(ctx, drybell.SliceSource(docs))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "staged %d documents into %d shards under %s\n", n, shards, root)
	}

	mx, report, err := p.ExecuteLFs(ctx, []drybell.LF[*corpus.Document]{chosen})
	if err != nil {
		return err
	}
	rep := report.PerLF[0]
	fmt.Fprintf(out, "%s: %d examples in %v (pos %d / neg %d / abstain %d)\n",
		rep.Name, report.Examples, rep.Duration.Round(1e6), rep.Positives, rep.Negatives, rep.Abstains)
	fmt.Fprintf(out, "execution: %d task attempts, %d tasks resumed\n",
		report.TaskAttempts, report.TasksResumed)
	if observer != nil {
		if err := observer.Trace.WriteChromeTraceFile(trace); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace written to %s (load in https://ui.perfetto.dev)\n", trace)
	}
	// Votes from every invocation accumulate as columns of one store; show
	// the operator its (verified) column union and this invocation's segment.
	columns, err := internallf.VerifyVotes(fsys, p.VotesBase())
	if err != nil {
		return err
	}
	segment, err := internallf.SegmentOf(fsys, p.VotesBase(), mx, []string{rep.Name})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "vote store %s: columns %v\n", p.VotesBase(), columns)
	fmt.Fprintln(out, "   published", segment)
	return nil
}

// readJSONL decodes one document per line; each line must be a JSON document
// in the corpus.Document schema.
func readJSONL(path string) ([]*corpus.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*corpus.Document
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		// Decode eagerly so a malformed record names its line, rather
		// than surfacing later as an anonymous staging error.
		d, err := corpus.UnmarshalDocument(line)
		if err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, lineNo, err)
		}
		out = append(out, d)
	}
	return out, sc.Err()
}
