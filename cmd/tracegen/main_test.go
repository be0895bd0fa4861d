package main

import (
	"bytes"
	"testing"

	"vmwild"
)

// TestOutputReadsBack: tracegen's CSV for a 2-server, 3-hour set reads
// back through vmwild.ReadTraceCSV to the generated set's IDs and specs.
func TestOutputReadsBack(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workload", "A", "-servers", "2", "-hours", "3", "-seed", "7"}, &out); err != nil {
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
