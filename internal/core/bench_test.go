package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"vmwild/internal/catalog"
	"vmwild/internal/trace"
	"vmwild/internal/workload"
)

// benchDynamicInput builds a 60-server Banking estate over the standard
// monitoring + evaluation horizon.
func benchDynamicInput(b *testing.B) Input {
	b.Helper()
	p := workload.Banking()
	p.Servers = 60
	set, err := workload.Generate(p, workload.HorizonHours, 1)
	if err != nil {
		b.Fatal(err)
	}
	mon, err := set.SliceAll(0, workload.MonitoringHours)
	if err != nil {
		b.Fatal(err)
	}
	eval, err := set.SliceAll(workload.MonitoringHours, workload.HorizonHours)
	if err != nil {
		b.Fatal(err)
	}
	return Input{Monitoring: mon, Evaluation: eval, Host: catalog.HS23Elite}
}

// BenchmarkDynamicPlan separates the dynamic planner's three cost centers
// so a regression in one cannot hide inside another:
//
//   - sizing: the Predict + Size walk alone (SizeDynamicDemands).
//   - packing: Plan against a precomputed demand matrix with PlanOnly set,
//     so only the adapt/repair/consolidate loop is on the measured path —
//     no sizing, no per-interval snapshot clones.
//   - inline: the full end-to-end Plan, sizing and snapshots included.
//
// inline should approximately equal sizing + packing + snapshot cost; the
// earlier shape of this benchmark compared inline against precomputed-with-
// snapshots, and the snapshot clones dominated both, making the two
// statistically indistinguishable.
func BenchmarkDynamicPlan(b *testing.B) {
	in := benchDynamicInput(b)
	b.Run("sizing", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := SizeDynamicDemands(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("packing", func(b *testing.B) {
		m, err := SizeDynamicDemands(in)
		if err != nil {
			b.Fatal(err)
		}
		cached := in
		cached.Demands = m
		cached.PlanOnly = true
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := (Dynamic{}).Plan(cached); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := (Dynamic{}).Plan(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchHugeFleet synthesizes an n-server monitoring set with short series
// built from a few shared diurnal patterns — generating a full workload
// horizon for 100k servers would dwarf the planning time being measured.
// Same-pattern servers are perfectly correlated (identical shape, different
// amplitude), across patterns the phases differ, so the stochastic packer
// sees the full range of correlation values.
func benchHugeFleet(b *testing.B, n int) *trace.Set {
	b.Helper()
	const (
		hours    = 24
		patterns = 16
	)
	base := make([][]trace.Usage, patterns)
	for p := range base {
		s := make([]trace.Usage, hours)
		phase := float64(p) * 2 * math.Pi / patterns
		for h := range s {
			day := 0.5 + 0.5*math.Sin(2*math.Pi*float64(h)/24+phase)
			s[h] = trace.Usage{CPU: 400 + 800*day, Mem: 2048 + 1024*day}
		}
		base[p] = s
	}
	servers := make([]*trace.ServerTrace, n)
	for i := range servers {
		scale := 0.4 + 0.1*float64(i%7)
		src := base[i%patterns]
		samples := make([]trace.Usage, hours)
		for h := range samples {
			samples[h] = src[h].Scale(scale)
		}
		series, err := trace.NewSeries(time.Hour, samples)
		if err != nil {
			b.Fatal(err)
		}
		servers[i] = &trace.ServerTrace{
			ID:     trace.ServerID(fmt.Sprintf("s%06d", i)),
			Spec:   trace.Spec{CPURPE2: 4200, MemMB: 32 * 1024},
			Series: series,
		}
	}
	return &trace.Set{Servers: servers}
}

// BenchmarkStochasticPlan100k measures one full stochastic plan over a
// synthetic 100k-VM fleet — the interactive-latency target for a single
// plan at warehouse scale. The dense correlation memo is disabled above
// memoMaxServers, so this also covers the recompute path.
func BenchmarkStochasticPlan100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-VM fleet")
	}
	set := benchHugeFleet(b, 100_000)
	in := Input{Monitoring: set, Evaluation: set, Host: catalog.HS23Elite}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := (Stochastic{}).Plan(in)
		if err != nil {
			b.Fatal(err)
		}
		if plan.Provisioned == 0 {
			b.Fatal("no hosts provisioned")
		}
	}
}
