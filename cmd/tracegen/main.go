// Command tracegen writes the synthetic data-center traces as CSV for use
// outside the library (spreadsheets, other simulators).
//
//	tracegen -workload A -hours 1056 -seed 20141208 -o traces_a.csv
//
// The CSV is the layout vmwild.WriteTraceCSV writes and
// vmwild.ReadTraceCSV reads back: one row per (server, hour) with server
// id, application, class, hardware capacities, hour index, CPU demand
// (RPE2) and memory demand (MB).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"vmwild"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		workload    = fs.String("workload", "A", "workload profile: A, B, C or D")
		profilePath = fs.String("profile", "", "load a custom profile from this JSON file instead of -workload")
		hours       = fs.Int("hours", vmwild.HorizonHours, "hours of trace to generate")
		seed        = fs.Int64("seed", vmwild.DefaultSeed, "generator seed")
		out         = fs.String("o", "", "output file (default stdout)")
		servers     = fs.Int("servers", 0, "override server count (0 keeps the profile's)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var profile *vmwild.Profile
	if *profilePath != "" {
		f, err := os.Open(*profilePath)
		if err != nil {
			return err
		}
		defer f.Close()
		profile, err = vmwild.ReadProfileJSON(f)
		if err != nil {
			return err
		}
	} else {
		for _, p := range vmwild.Profiles() {
			if p.Name == *workload {
				profile = p
				break
			}
		}
		if profile == nil {
			return fmt.Errorf("unknown workload %q", *workload)
		}
	}
	if *servers > 0 {
		profile.Servers = *servers
	}

	set, err := vmwild.Generate(profile, *hours, *seed)
	if err != nil {
		return err
	}

	if *out == "" {
		return writeCSV(stdout, set)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := writeCSV(f, set); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSV writes set to w through one buffer and flushes it.
func writeCSV(w io.Writer, set *vmwild.TraceSet) error {
	bw := bufio.NewWriter(w)
	if err := vmwild.WriteTraceCSV(bw, set); err != nil {
		return err
	}
	return bw.Flush()
}
