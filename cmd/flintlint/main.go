// Command flintlint runs Flint's project-specific determinism and
// safety checks over every package in the module (docs/LINT.md).
//
//	go run ./cmd/flintlint ./...
//
// Exit status: 0 when there are no findings, 1 on any finding, 2 on a
// usage or load error. The package pattern argument is accepted for
// muscle-memory compatibility with go vet; the analyzer always loads the
// whole module containing the working directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"flint/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		checksFlag = flag.String("checks", "", "comma-separated subset of checks to run (default all)")
		catalog    = flag.Bool("catalog", false, "print the check catalog and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: flintlint [flags] [./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *catalog {
		for _, c := range lint.Checks() {
			fmt.Printf("%-20s %s\n", c.Name, c.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "flintlint: %v\n", err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flintlint: %v\n", err)
		return 2
	}

	opts := lint.Options{}
	if *checksFlag != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*checksFlag, ",") {
			want[strings.TrimSpace(name)] = true
		}
		for _, c := range lint.Checks() {
			if want[c.Name] {
				opts.Checks = append(opts.Checks, c)
				delete(want, c.Name)
			}
		}
		var unknown []string
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "flintlint: unknown check(s) %s; registered checks are:\n", strings.Join(unknown, ", "))
			for _, c := range lint.Checks() {
				fmt.Fprintf(os.Stderr, "  %-20s %s\n", c.Name, c.Doc)
			}
			return 2
		}
	}

	findings, err := lint.AnalyzeModule(root, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flintlint: %v\n", err)
		return 2
	}

	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "flintlint: %d finding(s)\n", len(findings))
		return 1
	}
	fmt.Println("flintlint: clean")
	return 0
}
