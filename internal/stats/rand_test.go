package stats

import (
	"math/rand"
	"testing"
)

// TestDeriveStability pins the splitmix64 derivation: these values are load-
// bearing — the synthetic workload generator seeds every server from them,
// so a change here silently regenerates every trace and drifts the whole
// report. The cases mirror the generator's actual call shapes.
func TestDeriveStability(t *testing.T) {
	const root = 20141208 // workload.DefaultSeed
	tests := []struct {
		idx  int64
		want int64
	}{
		{idx: 0, want: Derive(root, 0)}, // self-consistency anchor
		{idx: 424_242, want: Derive(root, 424_242)},
		{idx: 77_777, want: Derive(root, 77_777)},
	}
	for _, tt := range tests {
		if got := Derive(root, tt.idx); got != tt.want {
			t.Errorf("Derive(%d, %d) unstable: %d then %d", int64(root), tt.idx, tt.want, got)
		}
		if got := Derive(root, tt.idx); got < 0 {
			t.Errorf("Derive(%d, %d) = %d, want non-negative", int64(root), tt.idx, got)
		}
	}
	// The exact splitmix64 finalizer, independently computed.
	var rootVar, idxVar uint64 = root, 424_242
	z := rootVar + idxVar*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if want := int64(z & (1<<63 - 1)); Derive(root, 424_242) != want {
		t.Errorf("Derive(root, 424242) = %d, want %d (splitmix64 drifted)", Derive(root, 424_242), want)
	}
}

// TestDeriveIndependence: nearby indexes yield uncorrelated streams (the
// per-server sub-seeds are consecutive integers).
func TestDeriveIndependence(t *testing.T) {
	const root = 20141208
	seen := make(map[int64]int64, 4096)
	for idx := int64(0); idx < 4096; idx++ {
		s := Derive(root, idx)
		if prev, dup := seen[s]; dup {
			t.Fatalf("Derive collision: idx %d and %d both map to %d", prev, idx, s)
		}
		seen[s] = idx
	}
	// Streams from adjacent sub-seeds should decorrelate immediately.
	a := rand.New(rand.NewSource(Derive(root, 1)))
	b := rand.New(rand.NewSource(Derive(root, 2)))
	same := 0
	for i := 0; i < 64; i++ {
		if (a.Float64() < 0.5) == (b.Float64() < 0.5) {
			same++
		}
	}
	if same < 16 || same > 48 {
		t.Errorf("adjacent streams agree on %d/64 bits, want ~32", same)
	}
}

// TestSplitPathSensitivity: Split hashes the label path, not the label
// concatenation, and is stable across calls.
func TestSplitPathSensitivity(t *testing.T) {
	const root = 20141208
	if Split(root, "A", "dynamic") != Split(root, "A", "dynamic") {
		t.Error("Split must be deterministic")
	}
	pairs := [][2][]string{
		{{"A", "dynamic"}, {"Adynamic"}},
		{{"ab", "c"}, {"a", "bc"}},
		{{"A", "dynamic"}, {"A", "stochastic"}},
		{{"A"}, {"A", ""}},
		{{}, {""}},
	}
	for _, p := range pairs {
		if Split(root, p[0]...) == Split(root, p[1]...) {
			t.Errorf("Split(%v) == Split(%v), want distinct", p[0], p[1])
		}
	}
	if Split(root, "A") == Split(root+1, "A") {
		t.Error("different roots must split differently")
	}
	if Split(root, "A", "dynamic", "bound=0.85") < 0 {
		t.Error("Split must return a non-negative seed")
	}
}

// TestSplitSpreads: cell labels of a realistic grid produce collision-free,
// roughly uniform seeds.
func TestSplitSpreads(t *testing.T) {
	const root = 20141208
	dcs := []string{"A", "B", "C", "D"}
	planners := []string{"semi-static", "stochastic", "dynamic"}
	knobs := []string{"", "bound=0.70", "bound=0.85", "interval=1h", "interval=4h", "predictor=ewma"}
	seen := make(map[int64][]string)
	low := 0
	for _, dc := range dcs {
		for _, pl := range planners {
			for _, k := range knobs {
				s := Split(root, dc, pl, k)
				if prev, dup := seen[s]; dup {
					t.Fatalf("grid seed collision: %v vs %v", prev, []string{dc, pl, k})
				}
				seen[s] = []string{dc, pl, k}
				if s < 1<<62 {
					low++
				}
			}
		}
	}
	// Non-negative 63-bit outputs: about half fall below 2^62.
	if low == 0 || low == len(seen) {
		t.Errorf("seeds not spread: %d/%d below 2^62", low, len(seen))
	}
}
