package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// BENCHMARK.json at the root of the checkout is the one declaration of
// the workloads, the metric names, their units and the end-to-end
// bounds. The harness loads it at start-up; what each metric means is
// in README.md.
const specFile = "BENCHMARK.json"

// metricDef is one declared metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" | "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: tolerated worsening, share of the median
}

// benchSpec is the layout of BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// The loaded declaration. Filled once by loadSpec before anything runs.
var (
	spec      benchSpec
	workloads []string // in declaration order
	endToEnd  []metricDef
	perLayer  []metricDef
	declared  map[string]metricDef
)

// rootDir is the checkout root as seen from the working directory: the
// harness runs from the root, `go test` from bench/.
func rootDir() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, specFile)); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("%s not found: run from the root of the checkout or from bench/", specFile)
}

func loadSpec(root string) error {
	raw, err := os.ReadFile(filepath.Join(root, specFile))
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	spec = benchSpec{}
	if err := dec.Decode(&spec); err != nil {
		return fmt.Errorf("%s: %w", specFile, err)
	}
	workloads = workloads[:0]
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	endToEnd, perLayer = spec.EndToEnd, spec.PerLayer
	declared = map[string]metricDef{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if _, dup := declared[m.Name]; dup {
			return fmt.Errorf("%s: metric %s declared twice", specFile, m.Name)
		}
		declared[m.Name] = m
	}
	return nil
}

// measured is one metric value with what the table prints beside it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"` // sample count, percentile actually reported
}

// metricSet collects a run's values by name. Setting an undeclared name
// is a bug in the harness.
type metricSet map[string]measured

func (s metricSet) set(name string, v float64, note string) {
	def, ok := declared[name]
	if !ok {
		panic("metric " + name + " is not declared in " + specFile)
	}
	s[name] = measured{Value: v, Unit: def.Unit, Note: note}
}

// table renders every metric of defs that has a value, in declaration
// order: "name value unit  # note".
func (s metricSet) table(defs []metricDef) string {
	var out strings.Builder
	for _, d := range defs {
		if m, ok := s[d.Name]; ok {
			fmt.Fprintf(&out, "%-42s %16.6g %s", d.Name, m.Value, m.Unit)
			if m.Note != "" {
				out.WriteString("  # " + m.Note)
			}
			out.WriteByte('\n')
		}
	}
	return out.String()
}
