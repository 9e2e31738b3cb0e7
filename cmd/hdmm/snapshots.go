package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/snapshot"
)

// cmdSnapshots inspects a durable engine-snapshot directory without
// mutating it — safe to run against a live daemon's store. Each snapshot
// prints one line: key, domain, budget, query count, cells (length of x̂).
// With -verify, the exit status reports whether every file verified
// (decode + name/key match); bad files print their reason to stderr.
func cmdSnapshots(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("snapshots", flag.ContinueOnError)
	dir := fs.String("dir", "", "snapshot directory to inspect (required)")
	verify := fs.Bool("verify", false, "exit non-zero if any snapshot fails verification")
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not a failure
		}
		return usageError(err.Error())
	}
	if *dir == "" {
		return usageError("snapshots requires -dir DIR")
	}
	if fs.NArg() != 0 {
		return usageError("snapshots takes no positional arguments")
	}
	entries, err := snapshot.List(*dir)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(stdout)
	bad := 0
	for _, e := range entries {
		if e.Err != nil {
			bad++
			fmt.Fprintf(stderr, "hdmm: %s: %v\n", e.File, e.Err)
			continue
		}
		sn := e.Snapshot
		sizes := make([]string, len(sn.Domain))
		for i, n := range sn.Domain {
			sizes[i] = fmt.Sprintf("%d", n)
		}
		budget := fmt.Sprintf("eps=%g", sn.Eps)
		if sn.Delta > 0 {
			budget = fmt.Sprintf("eps=%g delta=%g", sn.Eps, sn.Delta)
		}
		fmt.Fprintf(out, "%s  domain=[%s]  %s  queries=%d  cells=%d  %d bytes\n",
			sn.Key, strings.Join(sizes, ","), budget, len(sn.Queries), len(sn.Xhat), e.Size)
	}
	fmt.Fprintf(out, "%d snapshot(s), %d failed verification\n", len(entries), bad)
	if err := out.Flush(); err != nil {
		return err
	}
	if *verify && bad > 0 {
		return fmt.Errorf("%d snapshot(s) failed verification", bad)
	}
	return nil
}
