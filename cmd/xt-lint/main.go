// Command xt-lint runs the project's invariant analyzers (DESIGN.md §5c)
// over the module and exits nonzero on any finding:
//
//	go run ./cmd/xt-lint ./...
//
// Each finding is printed as `file:line: [analyzer] message`. Suppress a
// deliberate violation with `//lint:ignore <analyzer> <reason>` on the same
// line or the line above; mark an intentional object-store ownership
// hand-off with `//lint:owns <reason>`.
//
// Flags:
//
//	-list             list analyzers and exit
//
// Exit status: 0 clean, 1 findings, 2 usage/load error.
package main

import (
	"flag"
	"fmt"
	"os"

	"xingtian/internal/lint"
)

func main() {
	listOnly := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: xt-lint [-list] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the channel-invariant analyzers over the given package patterns\n")
		fmt.Fprintf(flag.CommandLine.Output(), "(default ./...) and exits 1 on any finding.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listOnly {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "xt-lint:", err)
		os.Exit(2)
	}

	wd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	passes, err := lint.Load(wd, flag.Args())
	if err != nil {
		fail(err)
	}
	findings := lint.Run(passes)
	lint.RelativizeFindings(findings, wd)

	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "xt-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
