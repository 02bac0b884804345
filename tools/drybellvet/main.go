package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"strings"

	"repro/tools/drybellvet/analysis"
	"repro/tools/drybellvet/passes/ctxflow"
	"repro/tools/drybellvet/passes/determinism"
	"repro/tools/drybellvet/passes/dfspath"
	"repro/tools/drybellvet/passes/lockcheck"
	"repro/tools/drybellvet/passes/testonly"
	"repro/tools/drybellvet/passes/voteenc"
)

var all = []*analysis.Analyzer{
	ctxflow.Analyzer,
	determinism.Analyzer,
	dfspath.Analyzer,
	lockcheck.Analyzer,
	testonly.Analyzer,
	voteenc.Analyzer,
}

func main() {
	checks := flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	if *checks != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*checks, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "drybellvet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	fset := token.NewFileSet()
	pkgs, err := analysis.Load(fset, ".", patterns...)
	if err == nil {
		// bench/ is a nested module that calls into internal/: testonly
		// counts its calls, and every analyzer checks it.
		var bench []*analysis.LoadedPackage
		bench, err = analysis.Load(fset, "bench", "./...")
		pkgs = append(pkgs, bench...)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "drybellvet: %v\n", err)
		os.Exit(2)
	}
	findings, err := analysis.RunAnalyzers(fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drybellvet: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "drybellvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
