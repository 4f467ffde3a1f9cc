// Command stamplint runs stampvet, the repo's STAMP-aware analyzer
// engine (see internal/lint), over package patterns, go vet-style:
//
//	stamplint ./...
//	stamplint -format sarif ./internal/experiments/...
//
// Exit status 0 means clean, 1 means findings (or unused/malformed
// //stamplint:allow annotations), 2 means the load itself failed.
package main

import (
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stamplint:", err)
		os.Exit(lint.ExitError)
	}
	os.Exit(lint.CLI(dir, os.Args[1:], os.Stdout, os.Stderr))
}
