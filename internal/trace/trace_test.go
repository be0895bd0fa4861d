package trace

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"vmwild/internal/stats"
)

func hourly(samples ...Usage) *Series {
	s, err := NewSeries(time.Hour, samples)
	if err != nil {
		panic(err)
	}
	return s
}

func TestResourceString(t *testing.T) {
	if CPU.String() != "cpu" || Mem.String() != "mem" {
		t.Error("unexpected resource names")
	}
	if Resource(9).String() != "Resource(9)" {
		t.Error("unexpected fallback name")
	}
}

func TestUsageArithmetic(t *testing.T) {
	u := Usage{CPU: 1, Mem: 2}.Add(Usage{CPU: 3, Mem: 4})
	if u != (Usage{CPU: 4, Mem: 6}) {
		t.Errorf("Add = %+v", u)
	}
	if got := u.Scale(0.5); got != (Usage{CPU: 2, Mem: 3}) {
		t.Errorf("Scale = %+v", got)
	}
	if u.Get(CPU) != 4 || u.Get(Mem) != 6 {
		t.Error("Get returned wrong components")
	}
}

func TestNewSeriesRejectsBadStep(t *testing.T) {
	if _, err := NewSeries(0, nil); err == nil {
		t.Error("expected error for zero step")
	}
}

func TestSeriesValues(t *testing.T) {
	s := hourly(Usage{CPU: 1, Mem: 10}, Usage{CPU: 2, Mem: 20})
	cpu := s.Values(CPU)
	mem := s.Values(Mem)
	if cpu[0] != 1 || cpu[1] != 2 || mem[0] != 10 || mem[1] != 20 {
		t.Errorf("Values: cpu=%v mem=%v", cpu, mem)
	}
	if s.Duration() != 2*time.Hour {
		t.Errorf("Duration = %v", s.Duration())
	}
}

func TestSeriesSlice(t *testing.T) {
	s := hourly(Usage{CPU: 1}, Usage{CPU: 2}, Usage{CPU: 3})
	sub, err := s.Slice(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 || sub.Samples[0].CPU != 2 {
		t.Errorf("Slice = %+v", sub.Samples)
	}
	if _, err := s.Slice(-1, 2); err == nil {
		t.Error("expected error for negative from")
	}
	if _, err := s.Slice(2, 1); err == nil {
		t.Error("expected error for inverted bounds")
	}
	if _, err := s.Slice(0, 4); err == nil {
		t.Error("expected error for to out of range")
	}
}

func TestResample(t *testing.T) {
	s := hourly(
		Usage{CPU: 1, Mem: 10}, Usage{CPU: 3, Mem: 30},
		Usage{CPU: 5, Mem: 50}, Usage{CPU: 7, Mem: 70},
		Usage{CPU: 9, Mem: 90},
	)
	r, err := s.Resample(2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Step != 2*time.Hour {
		t.Errorf("Step = %v", r.Step)
	}
	want := []Usage{{CPU: 2, Mem: 20}, {CPU: 6, Mem: 60}, {CPU: 9, Mem: 90}}
	if len(r.Samples) != len(want) {
		t.Fatalf("got %d samples, want %d", len(r.Samples), len(want))
	}
	for i := range want {
		if r.Samples[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, r.Samples[i], want[i])
		}
	}
	if _, err := s.Resample(0); err == nil {
		t.Error("expected error for factor 0")
	}
	same, err := s.Resample(1)
	if err != nil || same.Len() != s.Len() {
		t.Error("factor 1 should be identity")
	}
}

func TestIntervals(t *testing.T) {
	s := hourly(Usage{CPU: 1}, Usage{CPU: 5}, Usage{CPU: 2}, Usage{CPU: 8}, Usage{CPU: 3})
	peaks, err := s.Intervals(2, CPU, stats.Max)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 8, 3}
	for i := range want {
		if peaks[i] != want[i] {
			t.Errorf("peaks = %v, want %v", peaks, want)
			break
		}
	}
	if _, err := s.Intervals(0, CPU, stats.Max); err == nil {
		t.Error("expected error for interval 0")
	}
}

func TestServerTraceValidate(t *testing.T) {
	good := &ServerTrace{
		ID:     "srv-1",
		Spec:   Spec{CPURPE2: 1000, MemMB: 32768},
		Series: hourly(Usage{CPU: 1, Mem: 1}),
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	tests := []struct {
		name string
		st   *ServerTrace
	}{
		{name: "empty id", st: &ServerTrace{Spec: good.Spec, Series: good.Series}},
		{name: "zero capacity", st: &ServerTrace{ID: "x", Series: good.Series}},
		{name: "no samples", st: &ServerTrace{ID: "x", Spec: good.Spec}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.st.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestSpecRatioPerGB(t *testing.T) {
	// HS23-class: ratio 160 RPE2 per GB with 128 GB.
	s := Spec{CPURPE2: 160 * 128, MemMB: 128 * 1024}
	if got := s.RatioPerGB(); math.Abs(got-160) > 1e-9 {
		t.Errorf("RatioPerGB = %v, want 160", got)
	}
	if (Spec{CPURPE2: 100}).RatioPerGB() != 0 {
		t.Error("zero-memory spec should have ratio 0")
	}
}

func TestSetValidateAndSlice(t *testing.T) {
	set := &Set{
		Name: "test",
		Servers: []*ServerTrace{
			{ID: "a", Spec: Spec{CPURPE2: 1, MemMB: 1}, Series: hourly(Usage{CPU: 1}, Usage{CPU: 2})},
			{ID: "b", Spec: Spec{CPURPE2: 1, MemMB: 1}, Series: hourly(Usage{CPU: 3}, Usage{CPU: 4})},
		},
	}
	if err := set.Validate(); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	if got := len(set.SeriesList()); got != 2 {
		t.Errorf("SeriesList length = %d", got)
	}
	sub, err := set.SliceAll(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Servers[0].Series.Samples[0].CPU != 2 {
		t.Error("SliceAll did not slice")
	}
	if _, err := set.SliceAll(0, 5); err == nil {
		t.Error("expected error for out-of-range slice")
	}
	if err := (&Set{}).Validate(); err == nil {
		t.Error("empty set should fail validation")
	}
}

// Property: Resample with factor f preserves the total demand-hours up to
// rounding on the trailing partial group.
func TestQuickResamplePreservesMass(t *testing.T) {
	f := func(vals []uint16, factorRaw uint8) bool {
		factor := int(factorRaw%6) + 1
		n := len(vals) - len(vals)%factor // complete groups only
		if n == 0 {
			return true
		}
		samples := make([]Usage, n)
		var want float64
		for i := 0; i < n; i++ {
			samples[i] = Usage{CPU: float64(vals[i])}
			want += float64(vals[i])
		}
		s := hourly(samples...)
		r, err := s.Resample(factor)
		if err != nil {
			return false
		}
		var got float64
		for _, u := range r.Samples {
			got += u.CPU * float64(factor)
		}
		return math.Abs(got-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
