package main

import (
	"flag"
	"fmt"
	"io"

	"vmwild"
)

// scenarioCmd dispatches the scenario harness verbs:
//
//	vmwild scenario list                      # the named scenarios
//	vmwild scenario run                       # run them all
//	vmwild scenario run -seed 7 flash-crowd   # one scenario, alternate seed
//	vmwild scenario run -json soak-stress     # JSONL metric stream on stdout
func scenarioCmd(args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: vmwild scenario <list|run> [flags] [id ...]")
	}
	switch args[0] {
	case "list":
		return scenarioList(args[1:], w)
	case "run":
		return scenarioRun(args[1:], w)
	default:
		return fmt.Errorf("unknown scenario verb %q (want list or run)", args[0])
	}
}

func scenarioList(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("scenario list", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, s := range vmwild.Scenarios() {
		fmt.Fprintf(w, "%-24s %s\n", s.ID, s.Name)
		fmt.Fprintf(w, "%-24s   %s\n", "", s.Description)
	}
	return nil
}

func scenarioRun(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("scenario run", flag.ContinueOnError)
	seed := fs.Int64("seed", 0, "override the scenario seed (0 keeps each scenario's own)")
	jsonOut := fs.Bool("json", false, "emit the deterministic JSONL metric stream instead of the text summary")
	state := fs.String("state", "", "soak state directory (empty: fresh temp dir; reuse one to resume a crashed soak)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ids := fs.Args()
	if len(ids) == 0 {
		for _, s := range vmwild.Scenarios() {
			ids = append(ids, s.ID)
		}
	}
	failed := 0
	for _, id := range ids {
		s, err := vmwild.ScenarioByID(id)
		if err != nil {
			return err
		}
		opts := vmwild.ScenarioOptions{Seed: *seed, StateDir: *state}
		if *jsonOut {
			opts.Metrics = w
		}
		res, err := vmwild.RunScenario(s, opts)
		if err != nil {
			return err
		}
		if !*jsonOut {
			printScenarioResult(w, s, res)
		}
		if !res.Passed {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed their checkpoints", failed, len(ids))
	}
	return nil
}

func printScenarioResult(w io.Writer, s *vmwild.Scenario, res *vmwild.ScenarioResult) {
	fmt.Fprintf(w, "scenario %s (%s) seed=%d servers=%d\n", res.ID, s.Name, res.Seed, res.Servers)
	if res.Recovered > 0 {
		fmt.Fprintf(w, "  resumed from journal: %d intervals fast-forwarded\n", res.Recovered)
	}
	for _, tm := range res.Turns {
		fmt.Fprintf(w, "  turn %-16s intervals=%d moves=%d/%d aborted=%d failed=%d stalled=%d slo=%d hosts=%d\n",
			tm.Turn, tm.Intervals, tm.Completed, tm.Attempted, tm.Aborted,
			tm.FailedAttempts, tm.StalledAttempts, tm.SLOViolations, tm.ActiveHosts)
	}
	for _, cp := range res.Checkpoints {
		verdict := "PASS"
		if !cp.Passed {
			verdict = "FAIL"
		}
		name := cp.Name
		if cp.Turn != "" {
			name = cp.Turn + "/" + cp.Name
		}
		fmt.Fprintf(w, "  checkpoint %-28s %s", name, verdict)
		if cp.Detail != "" {
			fmt.Fprintf(w, "  (%s)", cp.Detail)
		}
		fmt.Fprintln(w)
	}
	if res.Passed {
		fmt.Fprintf(w, "  PASS (%d checkpoints)\n", len(res.Checkpoints))
	} else {
		fmt.Fprintf(w, "  FAIL (%d of %d checkpoints failed)\n", len(res.Failed()), len(res.Checkpoints))
	}
}
