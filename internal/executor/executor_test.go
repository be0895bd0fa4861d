package executor

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"vmwild/internal/placement"
	"vmwild/internal/sizing"
	"vmwild/internal/trace"
)

var spec = trace.Spec{CPURPE2: 1000, MemMB: 10000}

// build creates a placement with the given host count and VM assignment.
func build(t *testing.T, hosts int, assign map[string]struct {
	host string
	cpu  float64
	mem  float64
}) *placement.Placement {
	t.Helper()
	p, err := placement.NewPlacement(spec, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hosts; i++ {
		p.OpenHost()
	}
	// Deterministic order.
	var vms []string
	for vm := range assign {
		vms = append(vms, vm)
	}
	for _, vm := range sortedKeys(vms) {
		a := assign[vm]
		it := placement.Item{ID: trace.ServerID(vm), Demand: sizing.Demand{CPU: a.cpu, Mem: a.mem}}
		if err := p.Assign(it, a.host); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func sortedKeys(ss []string) []string {
	out := append([]string(nil), ss...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

type vmAt = struct {
	host string
	cpu  float64
	mem  float64
}

func TestDiff(t *testing.T) {
	from := build(t, 2, map[string]vmAt{
		"a": {host: "h0000", cpu: 100, mem: 1000},
		"b": {host: "h0000", cpu: 100, mem: 1000},
	})
	to := build(t, 2, map[string]vmAt{
		"a": {host: "h0000", cpu: 100, mem: 1000},
		"b": {host: "h0001", cpu: 150, mem: 1500},
	})
	moves, err := Diff(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 {
		t.Fatalf("got %d moves, want 1", len(moves))
	}
	mv := moves[0]
	if mv.VM != "b" || mv.From != "h0000" || mv.To != "h0001" {
		t.Errorf("move = %+v", mv)
	}
	// Demands come from the target placement (post-resize).
	if mv.Demand.Mem != 1500 {
		t.Errorf("demand = %+v, want target reservation", mv.Demand)
	}
}

func TestDiffErrors(t *testing.T) {
	if _, err := Diff(nil, nil); err == nil {
		t.Error("expected error for nil placements")
	}
	from := build(t, 1, map[string]vmAt{"a": {host: "h0000", cpu: 1, mem: 1}})
	to := build(t, 1, map[string]vmAt{"a": {host: "h0000", cpu: 1, mem: 1}, "b": {host: "h0000", cpu: 1, mem: 1}})
	if _, err := Diff(from, to); err == nil {
		t.Error("expected error for VM count mismatch")
	}
}

func TestScheduleSimpleWave(t *testing.T) {
	from := build(t, 3, map[string]vmAt{
		"a": {host: "h0000", cpu: 100, mem: 2000},
		"b": {host: "h0001", cpu: 100, mem: 2000},
	})
	moves := []Move{
		{VM: "a", From: "h0000", To: "h0002", Demand: sizing.Demand{CPU: 100, Mem: 2000}},
		{VM: "b", From: "h0001", To: "h0002", Demand: sizing.Demand{CPU: 100, Mem: 2000}},
	}
	plan, err := Schedule(from, moves, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Moves() != 2 {
		t.Fatalf("scheduled %d moves", plan.Moves())
	}
	// Both moves target h0002 with MaxPerHost=1: two waves.
	if len(plan.Waves) != 2 {
		t.Errorf("waves = %d, want 2 (target-host concurrency limit)", len(plan.Waves))
	}
	if plan.Total <= 0 || plan.DataMB < 4000 {
		t.Errorf("plan cost = %v / %v MB", plan.Total, plan.DataMB)
	}
}

func TestScheduleConcurrencyAcrossHosts(t *testing.T) {
	from := build(t, 4, map[string]vmAt{
		"a": {host: "h0000", cpu: 100, mem: 2000},
		"b": {host: "h0001", cpu: 100, mem: 2000},
	})
	moves := []Move{
		{VM: "a", From: "h0000", To: "h0002", Demand: sizing.Demand{CPU: 100, Mem: 2000}},
		{VM: "b", From: "h0001", To: "h0003", Demand: sizing.Demand{CPU: 100, Mem: 2000}},
	}
	plan, err := Schedule(from, moves, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint host pairs run in one wave.
	if len(plan.Waves) != 1 || len(plan.Waves[0].Moves) != 2 {
		t.Errorf("expected one concurrent wave, got %+v", plan.Waves)
	}
}

func TestScheduleRespectsCapacityOrdering(t *testing.T) {
	// h0001 is full until "b" leaves; "a" must wait for the space.
	from := build(t, 3, map[string]vmAt{
		"a": {host: "h0000", cpu: 100, mem: 4000},
		"b": {host: "h0001", cpu: 100, mem: 8000},
	})
	moves := []Move{
		{VM: "a", From: "h0000", To: "h0001", Demand: sizing.Demand{CPU: 100, Mem: 4000}},
		{VM: "b", From: "h0001", To: "h0002", Demand: sizing.Demand{CPU: 100, Mem: 8000}},
	}
	plan, err := Schedule(from, moves, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Waves) != 2 {
		t.Fatalf("waves = %d, want 2 (space dependency)", len(plan.Waves))
	}
	if plan.Waves[0].Moves[0].VM != "b" {
		t.Errorf("first wave must free space: %+v", plan.Waves[0].Moves)
	}
	if plan.Waves[1].Moves[0].VM != "a" {
		t.Errorf("second wave fills it: %+v", plan.Waves[1].Moves)
	}
}

func TestScheduleDeadlock(t *testing.T) {
	// a and b swap hosts, both hosts full: impossible without a spare.
	from := build(t, 2, map[string]vmAt{
		"a": {host: "h0000", cpu: 100, mem: 9000},
		"b": {host: "h0001", cpu: 100, mem: 9000},
	})
	swap := []Move{
		{VM: "a", From: "h0000", To: "h0001", Demand: sizing.Demand{CPU: 100, Mem: 9000}},
		{VM: "b", From: "h0001", To: "h0000", Demand: sizing.Demand{CPU: 100, Mem: 9000}},
	}
	if _, err := Schedule(from, swap, DefaultConfig()); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}

	cfg := DefaultConfig()
	cfg.SpareHost = true
	plan, err := Schedule(from, swap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bounced != 1 {
		t.Errorf("bounced = %d, want 1", plan.Bounced)
	}
	// Swap via spare: stage a, move b, return a = 3 migrations.
	if plan.Moves() != 3 {
		t.Errorf("moves = %d, want 3", plan.Moves())
	}
}

func TestScheduleEmpty(t *testing.T) {
	from := build(t, 1, map[string]vmAt{"a": {host: "h0000", cpu: 1, mem: 1}})
	plan, err := Schedule(from, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Total != 0 || plan.Moves() != 0 {
		t.Errorf("empty schedule = %+v", plan)
	}
	if _, err := Schedule(nil, nil, DefaultConfig()); err == nil {
		t.Error("expected error for nil placement")
	}
}

func TestScheduleGlobalConcurrencyCap(t *testing.T) {
	assign := make(map[string]vmAt)
	var moves []Move
	// 6 disjoint moves but MaxConcurrent 2: expect 3 waves.
	p, err := placement.NewPlacement(spec, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		p.OpenHost()
	}
	for i := 0; i < 6; i++ {
		vm := trace.ServerID(rune('a' + i))
		src := p.Hosts()[i*2].ID
		dst := p.Hosts()[i*2+1].ID
		it := placement.Item{ID: vm, Demand: sizing.Demand{CPU: 10, Mem: 100}}
		if err := p.Assign(it, src); err != nil {
			t.Fatal(err)
		}
		moves = append(moves, Move{VM: vm, From: src, To: dst, Demand: it.Demand})
	}
	_ = assign
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 2
	plan, err := Schedule(p, moves, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Waves) != 3 {
		t.Errorf("waves = %d, want 3 under global cap 2", len(plan.Waves))
	}
	var total time.Duration
	for _, w := range plan.Waves {
		total += w.Duration
	}
	if total != plan.Total {
		t.Errorf("total %v != sum of waves %v", plan.Total, total)
	}
}

func TestScheduleTransitionResizesInPlace(t *testing.T) {
	// In the target state "a" grew to fill most of h0000 while "b" moved
	// away. Without the in-place resize the scheduler would see phantom
	// space pressure from b's old reservation.
	from := build(t, 2, map[string]vmAt{
		"a": {host: "h0000", cpu: 100, mem: 4000},
		"b": {host: "h0000", cpu: 100, mem: 5000},
	})
	to := build(t, 2, map[string]vmAt{
		"a": {host: "h0000", cpu: 100, mem: 9000},
		"b": {host: "h0001", cpu: 100, mem: 5000},
	})
	plan, moves, err := ScheduleTransition(from, to, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 || moves[0].VM != "b" {
		t.Fatalf("moves = %+v", moves)
	}
	if plan.Moves() != 1 {
		t.Errorf("plan moves = %d, want 1 (resize is not a migration)", plan.Moves())
	}
	// from must not be mutated.
	if it, _ := from.Item("a"); it.Demand.Mem != 4000 {
		t.Error("ScheduleTransition mutated the source placement")
	}
}

func TestScheduleTransitionNewTargetHost(t *testing.T) {
	// The target opens a host the source has never seen.
	from := build(t, 1, map[string]vmAt{
		"a": {host: "h0000", cpu: 100, mem: 4000},
	})
	to := build(t, 2, map[string]vmAt{
		"a": {host: "h0001", cpu: 100, mem: 4000},
	})
	plan, _, err := ScheduleTransition(from, to, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Moves() != 1 {
		t.Errorf("moves = %d, want 1", plan.Moves())
	}
}

// TestQuickScheduleReachesTarget: for random placement transitions, the
// scheduled waves, applied in order, reproduce exactly the target
// assignment.
func TestQuickScheduleReachesTarget(t *testing.T) {
	f := func(seeds []uint16) bool {
		if len(seeds) < 2 || len(seeds) > 24 {
			return true
		}
		// Build from/to placements over 6 hosts with consistent VMs.
		from, err := placement.NewPlacement(spec, 1, 10)
		if err != nil {
			return false
		}
		to, err := placement.NewPlacement(spec, 1, 10)
		if err != nil {
			return false
		}
		for i := 0; i < 6; i++ {
			from.OpenHost()
			to.OpenHost()
		}
		for i, s := range seeds {
			vm := trace.ServerID(fmt.Sprintf("vm%02d", i))
			demand := sizing.Demand{CPU: float64(s%150) + 1, Mem: float64(s%1500) + 1}
			srcHost := from.Hosts()[int(s)%6].ID
			// Assign does not check capacity, so the target takes the
			// first host from s/7 on with room: a target placement that
			// overloads a host is infeasible and no schedule reaches it.
			dstHost := ""
			for k := 0; k < 6; k++ {
				if h := to.Hosts()[(int(s/7)+k)%6].ID; to.Fits(h, demand) {
					dstHost = h
					break
				}
			}
			if dstHost == "" {
				return true
			}
			if err := from.Assign(placement.Item{ID: vm, Demand: demand}, srcHost); err != nil {
				return false
			}
			if err := to.Assign(placement.Item{ID: vm, Demand: demand}, dstHost); err != nil {
				return false
			}
		}
		cfg := DefaultConfig()
		cfg.SpareHost = true
		plan, moves, err := ScheduleTransition(from, to, cfg)
		if err != nil {
			// The target fits every host: scheduling must succeed
			// with a spare host.
			return false
		}
		// Replay the waves and compare the final assignment to target.
		state := from.Clone()
		for _, mv := range moves {
			state.EnsureHost(mv.To)
		}
		state.EnsureHost("") // no-op guard
		for _, w := range plan.Waves {
			for _, mv := range w.Moves {
				state.EnsureHost(mv.To)
				it, ok := state.Item(mv.VM)
				if !ok {
					return false
				}
				if _, err := state.Remove(mv.VM); err != nil {
					return false
				}
				it.Demand = mv.Demand
				if err := state.Assign(it, mv.To); err != nil {
					return false
				}
			}
		}
		for i := range seeds {
			vm := trace.ServerID(fmt.Sprintf("vm%02d", i))
			got, _ := state.HostOf(vm)
			want, _ := to.HostOf(vm)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDrain(t *testing.T) {
	from := build(t, 3, map[string]vmAt{
		"a": {host: "h0000", cpu: 100, mem: 3000},
		"b": {host: "h0000", cpu: 100, mem: 3000},
		"c": {host: "h0001", cpu: 100, mem: 2000},
	})
	plan, moves, err := Drain(from, "h0000", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 2 {
		t.Fatalf("moves = %d, want 2", len(moves))
	}
	for _, mv := range moves {
		if mv.From != "h0000" {
			t.Errorf("move source = %s", mv.From)
		}
		if mv.To == "h0000" {
			t.Error("drained host used as target")
		}
	}
	if plan.Total <= 0 {
		t.Error("drain must take time")
	}
	// Draining an empty host is a no-op.
	empty, moves2, err := Drain(from, "h0002", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(moves2) != 0 || empty.Moves() != 0 {
		t.Error("empty host drain should be a no-op")
	}
	if _, _, err := Drain(nil, "x", DefaultConfig()); err == nil {
		t.Error("expected error for nil placement")
	}
}

func TestDrainNoCapacity(t *testing.T) {
	from := build(t, 2, map[string]vmAt{
		"a": {host: "h0000", cpu: 100, mem: 9000},
		"b": {host: "h0001", cpu: 100, mem: 9000},
	})
	if _, _, err := Drain(from, "h0000", DefaultConfig()); err == nil {
		t.Error("expected error when remaining hosts cannot absorb the load")
	}
}
