package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// compareFile compares the results of the `go test -bench` output read from
// in against the baseline JSON at path.
func compareFile(path string, in io.Reader, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base []Result
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("reading baseline %s: %w", path, err)
	}
	head, err := parse(in)
	if err != nil {
		return err
	}
	return compare(base, head, out)
}

// compare prints the ns/op and allocs/op of every head result that base
// also holds, and the base results head lacks, then every result that
// allocates less per op than base records (a stale record, which would let
// the figure grow back unnoticed) and their count. It returns an error
// naming every benchmark that allocates more per op than base records, or
// when no benchmark matched at all; stale records do not fail it.
func compare(base, head []Result, out io.Writer) error {
	type key struct{ pkg, name string }
	byKey := make(map[key]Result, len(base))
	for _, r := range base {
		byKey[key{r.Package, r.Name}] = r
	}
	var regressed, stale []string
	seen := make(map[key]bool, len(head))
	for _, h := range head {
		k := key{h.Package, h.Name}
		b, ok := byKey[k]
		if !ok {
			continue
		}
		seen[k] = true
		line := fmt.Sprintf("%s %s: %.0f -> %.0f ns/op", h.Package, h.Name, b.NsPerOp, h.NsPerOp)
		if b.NsPerOp > 0 {
			line += fmt.Sprintf(" (%+.1f%%)", 100*(h.NsPerOp/b.NsPerOp-1))
		}
		if b.AllocsPerOp != nil && h.AllocsPerOp != nil {
			line += fmt.Sprintf(", %d -> %d allocs/op", *b.AllocsPerOp, *h.AllocsPerOp)
			switch {
			case *h.AllocsPerOp > *b.AllocsPerOp:
				line += " REGRESSION"
				regressed = append(regressed, h.Package+" "+h.Name)
			case *h.AllocsPerOp < *b.AllocsPerOp:
				stale = append(stale, fmt.Sprintf("%s %s: record %d, this run %d allocs/op", h.Package, h.Name, *b.AllocsPerOp, *h.AllocsPerOp))
			}
		}
		fmt.Fprintln(out, line)
	}
	for _, b := range base {
		if !seen[key{b.Package, b.Name}] {
			fmt.Fprintf(out, "%s %s: missing from this run\n", b.Package, b.Name)
		}
	}
	for _, s := range stale {
		fmt.Fprintln(out, "stale record:", s)
	}
	fmt.Fprintf(out, "%d stale records (allocs/op below the record)\n", len(stale))
	switch {
	case len(regressed) > 0:
		return fmt.Errorf("%d benchmarks allocate more per op than the baseline: %s", len(regressed), strings.Join(regressed, ", "))
	case len(seen) == 0 && len(base) > 0:
		return fmt.Errorf("no benchmark of this run is in the baseline")
	}
	return nil
}
