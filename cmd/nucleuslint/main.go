// Command nucleuslint is the project's static gate: it fronts `go vet`
// and then runs the nucleus analyzer suite (lockdiscipline, syncerr) over
// the requested packages, exiting nonzero if either stage reports
// anything.
//
// Usage:
//
//	nucleuslint [-vet=false] [-list] [packages...]
//
// Packages default to ./... relative to the current directory. Findings
// print as file:line:col: [analyzer] message. A finding is silenced only
// by fixing it or by a justified per-line suppression:
//
//	//nucleus:lint-ignore <analyzer> <why this is safe>
//
// Suppressions without a justification, and stale suppressions that no
// longer match a finding, are themselves findings — the gate cannot be
// waved through silently. See docs/DEVELOPMENT.md for the full analyzer
// reference.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"

	"nucleus/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("nucleuslint", flag.ExitOnError)
	vet := fs.Bool("vet", true, "also run go vet over the packages")
	list := fs.Bool("list", false, "print the analyzer suite and exit")
	fs.Parse(args)

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	if *vet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "nucleuslint: go vet failed: %v\n", err)
			failed = true
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "nucleuslint: %v\n", err)
		return 2
	}
	prog, err := lint.Load(wd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nucleuslint: %v\n", err)
		return 2
	}
	diags, err := lint.Run(prog, lint.All(), lint.RunOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "nucleuslint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "nucleuslint: %d finding(s)\n", len(diags))
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}
