package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmwild"
)

// The CLI's run() is the testable surface; every subcommand is exercised on
// a small estate so the suite stays quick.
func TestRunDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs planners")
	}
	tests := []struct {
		name string
		args []string
	}{
		{name: "analyze", args: []string{"analyze", "-workload", "D", "-servers", "20"}},
		{name: "compare", args: []string{"compare", "-workload", "B", "-servers", "20"}},
		{name: "sensitivity", args: []string{"sensitivity", "-workload", "C", "-servers", "20"}},
		{name: "recommend", args: []string{"recommend", "-workload", "A", "-servers", "20"}},
		{name: "execute", args: []string{"execute", "-workload", "A", "-servers", "20"}},
		{name: "migrate", args: []string{"migrate", "-mem", "1024", "-dirty", "20"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args, io.Discard); err != nil {
				t.Fatalf("run(%v): %v", tt.args, err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	err := run(nil, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("no-args error = %v", err)
	}
	for _, name := range []string{"analyze", "compare", "sensitivity", "migrate", "recommend", "execute", "scenario", "report", "tracegen"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("usage error does not name %q: %v", name, err)
		}
	}
	if err := run([]string{"bogus"}, io.Discard); err == nil {
		t.Error("expected error for unknown subcommand")
	}
	if err := run([]string{"analyze", "-workload", "Z"}, io.Discard); err == nil {
		t.Error("expected error for unknown workload")
	}
	if err := run([]string{"migrate", "-mem", "-5"}, io.Discard); err == nil {
		t.Error("expected error for invalid migration parameters")
	}
}

// The scenario verbs are cheap enough to run for real: list renders the
// catalog, run drives a full in-memory scenario and must report pass.
func TestScenarioCommand(t *testing.T) {
	if err := run([]string{"scenario", "list"}, io.Discard); err != nil {
		t.Fatalf("scenario list: %v", err)
	}
	if err := run([]string{"scenario", "run", "rolling-maintenance"}, io.Discard); err != nil {
		t.Fatalf("scenario run: %v", err)
	}
	if err := run([]string{"scenario", "run", "-seed", "7", "-json", "dc-evacuation"}, io.Discard); err != nil {
		t.Fatalf("scenario run -seed -json: %v", err)
	}
}

func TestScenarioCommandErrors(t *testing.T) {
	if err := run([]string{"scenario"}, io.Discard); err == nil {
		t.Error("expected usage error for bare scenario")
	}
	if err := run([]string{"scenario", "bogus"}, io.Discard); err == nil {
		t.Error("expected error for unknown scenario verb")
	}
	if err := run([]string{"scenario", "run", "no-such-scenario"}, io.Discard); err == nil {
		t.Error("expected error for unknown scenario ID")
	}
}

// TestPackageDocListsCommands: the package documentation lists every
// command of the table, in the table's own rendering.
func TestPackageDocListsCommands(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	for _, c := range commands {
		if !strings.Contains(doc, "\t"+c.line()+"\n") {
			t.Errorf("package doc lacks the line %q", c.line())
		}
	}
}

// TestOutputReadsBack: tracegen's CSV for a 2-server, 3-hour set reads
// back through vmwild.ReadTraceCSV to the generated set's IDs and specs.
func TestOutputReadsBack(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"tracegen", "-workload", "A", "-servers", "2", "-hours", "3", "-seed", "7"}, &out); err != nil {
		t.Fatal(err)
	}
	got, err := vmwild.ReadTraceCSV(&out, "A")
	if err != nil {
		t.Fatal(err)
	}

	var profile *vmwild.Profile
	for _, p := range vmwild.Profiles() {
		if p.Name == "A" {
			profile = p
		}
	}
	profile.Servers = 2
	want, err := vmwild.Generate(profile, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Servers) != len(want.Servers) {
		t.Fatalf("read back %d servers, want %d", len(got.Servers), len(want.Servers))
	}
	for i, w := range want.Servers {
		g := got.Servers[i]
		if g.ID != w.ID || g.Spec != w.Spec || g.Series.Len() != 3 {
			t.Errorf("server %d: read back %s %+v (%d hours), want %s %+v (3 hours)", i, g.ID, g.Spec, g.Series.Len(), w.ID, w.Spec)
		}
	}
}

// TestBenchJSONKeepsBenchmarks: rewriting the timing profile over a file
// that holds a benchmarks section (CI's WriteAll gate reads it) leaves that
// section byte-equal and replaces the run's own fields.
func TestBenchJSONKeepsBenchmarks(t *testing.T) {
	const prev = `{
  "schema": "vmwild-bench/1",
  "seed": 1,
  "workers": 1,
  "total_ns": 5,
  "cells": [
    {
      "label": "old",
      "ns": 5
    }
  ],
  "benchmarks": {
    "BenchmarkWriteAll/sequential": {
      "this_pr": {
        "ns_op": 2366137985,
        "allocs_op": 809861
      },
      "speedup": 4.26
    }
  }
}
`
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(prev), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeBenchJSON(path, 7, 2, 9, []benchCell{{Label: "new", NS: 9}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var before, after map[string]json.RawMessage
	if err := json.Unmarshal([]byte(prev), &before); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after["benchmarks"], before["benchmarks"]) {
		t.Errorf("benchmarks section changed:\n%s\nwant\n%s", after["benchmarks"], before["benchmarks"])
	}
	if got := string(after["total_ns"]); got != "9" {
		t.Errorf("total_ns = %s, want 9", got)
	}
	var cells []benchCell
	if err := json.Unmarshal(after["cells"], &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0] != (benchCell{Label: "new", NS: 9}) {
		t.Errorf("cells = %+v, want the one new cell", cells)
	}
}
