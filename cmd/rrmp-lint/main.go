// Command rrmp-lint is the multichecker for the repository's determinism
// contract: the simtime, maporder, streamlabel, metrickey and timerowner
// analyzers (internal/lint) run over whole packages and fail the build on any
// unannotated finding. CI runs it over the module:
//
//	go run ./cmd/rrmp-lint ./...
//
// Package patterns default to ./...; -json prints the findings as a JSON
// array and -list prints the analyzer names. Exit status is 1 iff
// findings were reported, and 2 on a load or usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rrmp-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzer names, one per line, and exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintln(stdout, a.Name)
		}
		return 0
	}

	rest := fs.Args()
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	pkgs, err := lint.Load(".", rest...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "rrmp-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
