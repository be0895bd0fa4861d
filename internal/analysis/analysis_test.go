package analysis

import (
	"math"
	"testing"
	"time"

	"vmwild/internal/trace"
)

func server(id string, cpuRating, memMB float64, samples []trace.Usage) *trace.ServerTrace {
	s, err := trace.NewSeries(time.Hour, samples)
	if err != nil {
		panic(err)
	}
	return &trace.ServerTrace{
		ID:     trace.ServerID(id),
		Spec:   trace.Spec{CPURPE2: cpuRating, MemMB: memMB},
		Series: s,
	}
}

func usages(cpu ...float64) []trace.Usage {
	out := make([]trace.Usage, len(cpu))
	for i, c := range cpu {
		out[i] = trace.Usage{CPU: c, Mem: 1024}
	}
	return out
}

func TestPeakToAverageCDF(t *testing.T) {
	set := &trace.Set{Name: "t", Servers: []*trace.ServerTrace{
		server("a", 100, 4096, usages(1, 1, 1, 5)), // P/A = 5/2 = 2.5
		server("b", 100, 4096, usages(2, 2, 2, 2)), // P/A = 1
	}}
	cdf, err := PeakToAverageCDF(set, 1, trace.CPU)
	if err != nil {
		t.Fatal(err)
	}
	if got := cdf.FractionAbove(2); got != 0.5 {
		t.Errorf("fraction above 2 = %v, want 0.5", got)
	}
	// At 2h intervals server a's demands are max(1,1)=1, max(1,5)=5 ->
	// P/A = 5/3.
	cdf2, err := PeakToAverageCDF(set, 2, trace.CPU)
	if err != nil {
		t.Fatal(err)
	}
	if got := cdf2.Quantile(1); math.Abs(got-5.0/3.0) > 1e-9 {
		t.Errorf("max P/A at 2h = %v, want 5/3", got)
	}
	if _, err := PeakToAverageCDF(set, 0, trace.CPU); err == nil {
		t.Error("expected error for zero interval")
	}
}

func TestCoVCDF(t *testing.T) {
	set := &trace.Set{Name: "t", Servers: []*trace.ServerTrace{
		server("flat", 100, 4096, usages(3, 3, 3, 3)),
		server("spiky", 100, 4096, usages(0.1, 0.1, 0.1, 10)),
	}}
	cdf, err := CoVCDF(set, trace.CPU)
	if err != nil {
		t.Fatal(err)
	}
	if got := cdf.FractionAbove(1); got != 0.5 {
		t.Errorf("heavy-tailed fraction = %v, want 0.5", got)
	}
}

func TestResourceRatios(t *testing.T) {
	// Two servers, each demanding 160 RPE2 and 1024 MB (1 GB) flat:
	// aggregate ratio = 320/2 = 160 per interval.
	set := &trace.Set{Name: "t", Servers: []*trace.ServerTrace{
		server("a", 1000, 4096, []trace.Usage{{CPU: 160, Mem: 1024}, {CPU: 160, Mem: 1024}}),
		server("b", 1000, 4096, []trace.Usage{{CPU: 160, Mem: 1024}, {CPU: 160, Mem: 1024}}),
	}}
	ratios, err := ResourceRatios(set, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ratios) != 2 {
		t.Fatalf("got %d ratios, want 2", len(ratios))
	}
	for _, r := range ratios {
		if math.Abs(r-160) > 1e-9 {
			t.Errorf("ratio = %v, want 160", r)
		}
	}
	frac, err := MemoryBoundFraction(set, 1, 160)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 1 {
		t.Errorf("memory-bound fraction = %v, want 1 (ratio at threshold counts)", frac)
	}
	frac, err = MemoryBoundFraction(set, 1, 159.9)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 0 {
		t.Errorf("memory-bound fraction below threshold = %v, want 0", frac)
	}
	if _, err := ResourceRatios(&trace.Set{}, 1); err == nil {
		t.Error("expected error for empty set")
	}
	if _, err := ResourceRatios(set, 0); err == nil {
		t.Error("expected error for zero interval")
	}
}

func TestMeanCPUUtilization(t *testing.T) {
	set := &trace.Set{Name: "t", Servers: []*trace.ServerTrace{
		server("a", 100, 4096, usages(10, 10)), // 10% util
		server("b", 100, 4096, usages(30, 30)), // 30% util
	}}
	got, err := MeanCPUUtilization(set)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.2) > 1e-9 {
		t.Errorf("mean utilization = %v, want 0.2", got)
	}
	if _, err := MeanCPUUtilization(&trace.Set{}); err == nil {
		t.Error("expected error for empty set")
	}
	bad := &trace.Set{Servers: []*trace.ServerTrace{server("x", 0, 1, usages(1))}}
	if _, err := MeanCPUUtilization(bad); err == nil {
		t.Error("expected error for zero CPU rating")
	}
}

func TestBurstiness(t *testing.T) {
	st := server("a", 100, 4096, []trace.Usage{
		{CPU: 5, Mem: 1000}, {CPU: 5, Mem: 1000}, {CPU: 50, Mem: 2000}, {CPU: 5, Mem: 1000},
	})
	b, err := Burstiness(st)
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != "a" {
		t.Errorf("ID = %v", b.ID)
	}
	if math.Abs(b.AvgUtil-0.1625) > 1e-9 {
		t.Errorf("AvgUtil = %v, want 0.1625", b.AvgUtil)
	}
	if math.Abs(b.PeakUtil-0.5) > 1e-9 {
		t.Errorf("PeakUtil = %v, want 0.5", b.PeakUtil)
	}
	if b.PeakToAvg <= 1 || b.MemPeakToAvg <= 1 {
		t.Error("peak-to-average ratios should exceed 1 for bursty series")
	}
	if _, err := Burstiness(&trace.ServerTrace{}); err == nil {
		t.Error("expected error for invalid trace")
	}
}
