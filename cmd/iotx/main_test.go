package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestEveryExperimentRuns drives the CLI the way EXPERIMENTS.md and CI do
// — flags and all — once per experiment at a tiny scale, and fails on an
// error or on a table with the wrong number of rows: cmd/iotx is the only
// way to regenerate the paper's artifacts, so it must not rot unnoticed.
func TestEveryExperimentRuns(t *testing.T) {
	// Data rows of each experiment's table under -quick.
	wantRows := map[string]int{
		"table2":    3,  // PMU settings
		"table3":    3,  // fleet sizes
		"fig5":      15, // 5 datasets x 3 candidates
		"fig6":      12, // LD(1..4) x 3 candidates
		"table7":    3,  // candidates (datasets are columns)
		"table8":    8,  // query templates
		"fig7":      8,  // 4 tag counts x 2 candidates
		"compress":  4,
		"ablations": 8, // arms
	}
	for _, name := range order {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-exp", name, "-quick", "-scale", "0.25", "-queries", "3"}, &out); err != nil {
				t.Fatal(err)
			}
			if name == "plans" {
				// The plan study prints plans, not a table: the one-sensor box
				// goes relational-first, then the continent box operational-first.
				small := strings.Index(out.String(), "plan=relational-first")
				large := strings.Index(out.String(), "plan=operational-first")
				if small < 0 || large < small {
					t.Fatalf("LQ4 plan crossover missing:\n%s", out.String())
				}
				return
			}
			want, ok := wantRows[name]
			if !ok {
				t.Fatalf("experiment %q is in order but this test does not know its table", name)
			}
			if got := tableRows(out.String()); got != want {
				t.Fatalf("%d table rows, want %d:\n%s", got, want, out.String())
			}
		})
	}
	if err := run([]string{"-exp", "nosuch"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// tableRows counts the non-empty lines between a table's dashed separator
// and the completion line.
func tableRows(out string) int {
	n, inTable := 0, false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "[") || strings.TrimSpace(line) == "":
			inTable = false
		case strings.Trim(line, "- ") == "":
			inTable = true
		case inTable:
			n++
		}
	}
	return n
}
