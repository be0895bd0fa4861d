// Command vmwild is the offline CLI for the consolidation-study library:
// the paper's experiments, the full reproduction report and the synthetic
// traces, one subcommand each:
//
//	vmwild analyze     -workload A          # burstiness + resource-ratio study (Figures 1-6)
//	vmwild compare     -workload A          # planner comparison (Figures 7-12)
//	vmwild sensitivity -workload A          # migration-reservation sweep (Figures 13-16)
//	vmwild migrate     -mem 2048 -dirty 40  # live-migration pre-copy model
//	vmwild recommend   -workload A          # consolidation-mode advisor (Section 8)
//	vmwild execute     -workload A          # do the migration waves fit the interval?
//	vmwild scenario    run flash-crowd      # end-to-end scenario with checkpoints
//	vmwild report      -parallel 4          # the full reproduction, all tables and figures
//	vmwild tracegen    -workload B -o b.csv # the synthetic traces as CSV
//
// The list is the commands table below; TestPackageDocListsCommands keeps
// the two equal.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vmwild"
	"vmwild/internal/migration"
	"vmwild/internal/report"
	"vmwild/internal/stats"
)

// command is one subcommand: its name, an example invocation and what it
// does. Dispatch, the usage text and the package documentation all come
// from the commands table.
type command struct {
	name, example, summary string
	run                    func(args []string, stdout io.Writer) error
}

var commands = []command{
	{"analyze", "-workload A", "burstiness + resource-ratio study (Figures 1-6)", analyze},
	{"compare", "-workload A", "planner comparison (Figures 7-12)", compare},
	{"sensitivity", "-workload A", "migration-reservation sweep (Figures 13-16)", sensitivity},
	{"migrate", "-mem 2048 -dirty 40", "live-migration pre-copy model", migrate},
	{"recommend", "-workload A", "consolidation-mode advisor (Section 8)", recommend},
	{"execute", "-workload A", "do the migration waves fit the interval?", execute},
	{"scenario", "run flash-crowd", "end-to-end scenario with checkpoints", scenarioCmd},
	{"report", "-parallel 4", "the full reproduction, all tables and figures", fullReport},
	{"tracegen", "-workload B -o b.csv", "the synthetic traces as CSV", tracegen},
}

// line renders the command as one line of the usage text.
func (c command) line() string {
	return fmt.Sprintf("vmwild %-11s %-20s # %s", c.name, c.example, c.summary)
}

// usage is the error for a missing subcommand: every name, then one
// example line per command.
func usage() error {
	names := make([]string, len(commands))
	lines := make([]string, len(commands))
	for i, c := range commands {
		names[i] = c.name
		lines[i] = "\t" + c.line()
	}
	return fmt.Errorf("usage: vmwild <%s> [flags]\n%s", strings.Join(names, "|"), strings.Join(lines, "\n"))
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vmwild:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return usage()
	}
	for _, c := range commands {
		if c.name == args[0] {
			return c.run(args[1:], stdout)
		}
	}
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func profileByName(name string) (*vmwild.Profile, error) {
	for _, p := range vmwild.Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want A, B, C or D)", name)
}

type studyOpts struct {
	workload *string
	seed     *int64
	servers  *int
}

func studyFlags(fs *flag.FlagSet) studyOpts {
	return studyOpts{
		workload: fs.String("workload", "A", "workload profile: A (Banking), B (Airlines), C (Natural Resources), D (Beverage)"),
		seed:     fs.Int64("seed", vmwild.DefaultSeed, "workload generator seed"),
		servers:  fs.Int("servers", 0, "override the estate size (0 keeps the paper's)"),
	}
}

func newStudy(o studyOpts) (*vmwild.Study, error) {
	p, err := profileByName(*o.workload)
	if err != nil {
		return nil, err
	}
	if *o.servers > 0 {
		p.Servers = *o.servers
	}
	return vmwild.NewStudy(p, vmwild.WithSeed(*o.seed))
}

func analyze(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	opts := studyFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	study, err := newStudy(opts)
	if err != nil {
		return err
	}

	bursty, err := study.SampleBurstiness(2)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Burstiest servers of workload %s (Figure 1)", *opts.workload),
		"server", "avg util", "peak util", "peak/avg", "CoV")
	for _, b := range bursty {
		t.AddRow(string(b.ID), b.AvgUtil, b.PeakUtil, b.PeakToAvg, b.CoV)
	}
	if err := t.Render(w); err != nil {
		return err
	}

	cpuCurves, err := study.PeakToAverageCPU()
	if err != nil {
		return err
	}
	memCurves, err := study.PeakToAverageMem()
	if err != nil {
		return err
	}
	curves := make(map[string]*stats.CDF)
	var order []string
	for _, c := range cpuCurves {
		name := fmt.Sprintf("cpu @%dh", c.IntervalHours)
		curves[name] = c.CDF
		order = append(order, name)
	}
	for _, c := range memCurves {
		name := fmt.Sprintf("mem @%dh", c.IntervalHours)
		curves[name] = c.CDF
		order = append(order, name)
	}
	t, err = report.CDFTable("\nPeak-to-average ratios (Figures 2 and 4)", report.DefaultQuantiles, curves, order)
	if err != nil {
		return err
	}
	if err := t.Render(w); err != nil {
		return err
	}

	cov, err := study.CoVCPU()
	if err != nil {
		return err
	}
	covMem, err := study.CoVMem()
	if err != nil {
		return err
	}
	t, err = report.CDFTable("\nCoefficient of variability (Figures 3 and 5)", report.DefaultQuantiles,
		map[string]*stats.CDF{"cpu": cov, "mem": covMem}, []string{"cpu", "mem"})
	if err != nil {
		return err
	}
	if err := t.Render(w); err != nil {
		return err
	}

	ratio, err := study.ResourceRatio()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nAggregate CPU/memory ratio (Figure 6): p10=%.0f p50=%.0f p90=%.0f RPE2/GB; memory-bound in %.0f%% of intervals (blade ratio %.0f)\n",
		ratio.CDF.Quantile(0.10), ratio.CDF.Median(), ratio.CDF.Quantile(0.90), ratio.MemoryBoundFrac*100, ratio.BladeRatio)

	daily, weekly, err := study.Seasonality()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Seasonality (autocorrelation): daily median %.2f, weekly median %.2f\n",
		daily.Median(), weekly.Median())
	return nil
}

func compare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	opts := studyFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	study, err := newStudy(opts)
	if err != nil {
		return err
	}

	rows, err := study.CompareCosts()
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Planner comparison, workload %s (Figure 7)", *opts.workload),
		"planner", "hosts", "space (norm)", "power W", "power (norm)", "migrations")
	for _, r := range rows {
		t.AddRow(r.Planner, r.Hosts, r.NormSpace, r.AvgPowerW, r.NormPower, r.Migrations)
	}
	if err := t.Render(w); err != nil {
		return err
	}

	cont, err := study.Contention()
	if err != nil {
		return err
	}
	t = report.NewTable("\nContention time (Figure 8)", "planner", "hours", "fraction")
	for _, r := range cont {
		t.AddRow(r.Planner, r.Hours, r.Fraction)
	}
	if err := t.Render(w); err != nil {
		return err
	}

	utils, err := study.Utilization()
	if err != nil {
		return err
	}
	t = report.NewTable("\nHost CPU utilization (Figures 10-11)",
		"planner", "avg p50", "peak p50", "peak p90", "peak>100%")
	for _, u := range utils {
		t.AddRow(u.Planner, u.Avg.Median(), u.Peak.Median(), u.Peak.Quantile(0.90), u.FracPeakOver1)
	}
	if err := t.Render(w); err != nil {
		return err
	}

	active, err := study.ActiveServers()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nActive-server fraction under dynamic (Figure 12): min=%.2f p50=%.2f max=%.2f\n",
		active.Quantile(0), active.Median(), active.Quantile(1))
	return nil
}

func sensitivity(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sensitivity", flag.ContinueOnError)
	opts := studyFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	study, err := newStudy(opts)
	if err != nil {
		return err
	}
	sens, err := study.Sensitivity(nil)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Dynamic hosts vs utilization bound, workload %s (Figures 13-16); vanilla=%d stochastic=%d",
		*opts.workload, sens.VanillaHosts, sens.StochasticHosts), "bound", "dynamic hosts")
	for _, pt := range sens.Points {
		t.AddRow(pt.Bound, pt.DynamicHosts)
	}
	return t.Render(w)
}

func migrate(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("migrate", flag.ContinueOnError)
	mem := fs.Float64("mem", 2048, "VM active memory in MB")
	dirty := fs.Float64("dirty", 40, "page dirty rate in MB/s")
	link := fs.Float64("link", 110, "migration link bandwidth in MB/s")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := migration.DefaultConfig()
	cfg.LinkMBps = *link
	res, err := migration.Simulate(*mem, *dirty, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pre-copy migration of %.0f MB at %.0f MB/s dirty rate over a %.0f MB/s link:\n", *mem, *dirty, *link)
	fmt.Fprintf(w, "  duration   %v\n  downtime   %v\n  rounds     %d\n  transferred %.0f MB\n  converged  %v\n",
		res.Duration.Round(1e7), res.Downtime.Round(1e6), res.Rounds, res.TransferredMB, res.Converged)
	return nil
}

func recommend(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("recommend", flag.ContinueOnError)
	opts := studyFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	study, err := newStudy(opts)
	if err != nil {
		return err
	}
	rec, err := study.Recommend()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s -> %s consolidation"+"\n\n", *opts.workload, rec.Mode)
	a := rec.Attributes
	t := report.NewTable("measured attributes", "attribute", "value")
	t.AddRow("heavy-tailed servers (CoV>=1)", a.HeavyTailFrac)
	t.AddRow("median CPU peak/avg @2h", a.PeakAvgMedian)
	t.AddRow("memory-bound interval fraction", a.MemoryBoundFrac)
	t.AddRow("predictor under-prediction", a.UnderPrediction)
	t.AddRow("correlation stability", a.CorrelationStability)
	t.AddRow("p90 sizing slack", a.TailGainFrac)
	t.AddRow("dynamic-friendly servers", a.DynamicFriendlyFrac)
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nreasoning:")
	for _, r := range rec.Reasons {
		fmt.Fprintf(w, "  - %s\n", r)
	}
	return nil
}

func execute(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("execute", flag.ContinueOnError)
	opts := studyFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	study, err := newStudy(opts)
	if err != nil {
		return err
	}
	rows, err := study.ExecutionStudy()
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Execution study, workload %s: migration waves vs the 2h interval", *opts.workload),
		"mechanism", "p50", "p95", "max", "infeasible", "avg moves", "data GB")
	for _, r := range rows {
		t.AddRow(r.Mechanism, r.P50.Round(1e9).String(), r.P95.Round(1e9).String(), r.Max.Round(1e9).String(),
			r.InfeasibleFrac, r.AvgMoves, r.TotalDataGB)
	}
	return t.Render(w)
}

// tracegen writes a data center's synthetic traces as CSV for use outside
// the library (spreadsheets, other simulators). The layout is the one
// vmwild.WriteTraceCSV writes and vmwild.ReadTraceCSV reads back: one row
// per (server, hour) with server id, application, class, hardware
// capacities, hour index, CPU demand (RPE2) and memory demand (MB).
func tracegen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	opts := studyFlags(fs)
	profilePath := fs.String("profile", "", "load a custom profile from this JSON file instead of -workload")
	hours := fs.Int("hours", vmwild.HorizonHours, "hours of trace to generate")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var p *vmwild.Profile
	var err error
	if *profilePath != "" {
		p, err = readProfile(*profilePath)
	} else {
		p, err = profileByName(*opts.workload)
	}
	if err != nil {
		return err
	}
	if *opts.servers > 0 {
		p.Servers = *opts.servers
	}
	set, err := vmwild.Generate(p, *hours, *opts.seed)
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

func readProfile(path string) (*vmwild.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return vmwild.ReadProfileJSON(f)
}

// writeCSV writes set to w through one buffer and flushes it.
func writeCSV(w io.Writer, set *vmwild.TraceSet) error {
	bw := bufio.NewWriter(w)
	if err := vmwild.WriteTraceCSV(bw, set); err != nil {
		return err
	}
	return bw.Flush()
}
