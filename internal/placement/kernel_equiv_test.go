package placement

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"vmwild/internal/constraints"
	"vmwild/internal/sizing"
	"vmwild/internal/trace"
)

// The kernel equivalence wall: for randomized fleets the flattened
// struct-of-arrays kernels must produce placements with Encode bytes
// identical to the retained naive reference kernels (reference_test.go). The
// fleets deliberately include duplicate demands (sort-key ties resolved by
// ID), items far larger than others (many non-fitting hosts for the
// segment-tree finder to prune), and AvoidHost constraints that leave
// zero-VM hosts sitting in the scan order.

// randFleet builds a deterministic pseudo-random fleet. Demands are
// quantized to a few steps so ties are common, and a handful of "whale"
// items stress the finder's pruning.
func randFleet(rng *rand.Rand, n int, withTails bool) []Item {
	items := make([]Item, n)
	for i := range items {
		cpu := float64(rng.Intn(9)+1) * 100 / float64(rng.Intn(3)+1)
		mem := float64(rng.Intn(9)+1) * 100 / float64(rng.Intn(3)+1)
		if rng.Intn(10) == 0 {
			cpu, mem = 930, 930 // whales: almost a full host
		}
		it := Item{
			ID:     trace.ServerID(fmt.Sprintf("vm%04d", i)),
			Demand: sizing.Demand{CPU: cpu, Mem: mem},
		}
		if withTails {
			it.Tail = sizing.Demand{
				CPU: min(cpu+float64(rng.Intn(4))*50, 1000),
				Mem: min(mem+float64(rng.Intn(4))*50, 1000),
			}
		}
		items[i] = it
	}
	return items
}

// randConstraints sometimes adds an AvoidHost for the fleet's first items —
// the open-retry path then leaves freshly opened hosts empty, so the
// candidate scans must step over zero-VM hosts exactly like the reference.
func randConstraints(rng *rand.Rand, items []Item) constraints.Set {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return constraints.Set{
			constraints.AvoidHost{VM: items[0].ID, Host: "h0000"},
			constraints.AvoidHost{VM: items[1].ID, Host: "h0000"},
		}
	default:
		g := []trace.ServerID{items[0].ID, items[1].ID, items[2].ID}
		return constraints.Set{constraints.AntiAffinity{Group: g}}
	}
}

// testCorr is a deterministic CorrIndexer/CorrFunc pair over the fleet.
type testCorr struct {
	ids map[trace.ServerID]int
}

func newTestCorr(items []Item) *testCorr {
	c := &testCorr{ids: make(map[trace.ServerID]int, len(items))}
	for i, it := range items {
		c.ids[it.ID] = i
	}
	return c
}

func (c *testCorr) Index(id trace.ServerID) int {
	if i, ok := c.ids[id]; ok {
		return i
	}
	return -1
}

// At is an arbitrary deterministic function into [-1, 1].
func (c *testCorr) At(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	return float64((i*31+j*17)%201-100) / 100
}

func (c *testCorr) Corr(a, b trace.ServerID) float64 {
	ia, ok := c.ids[a]
	if !ok {
		return 0
	}
	ib, ok := c.ids[b]
	if !ok {
		return 0
	}
	return c.At(ia, ib)
}

func assertSameBytes(t *testing.T, seed int64, kind string, flat, ref *Placement) {
	t.Helper()
	fb, err := flat.Encode()
	if err != nil {
		t.Fatalf("seed %d %s: encode flat: %v", seed, kind, err)
	}
	rb, err := ref.Encode()
	if err != nil {
		t.Fatalf("seed %d %s: encode reference: %v", seed, kind, err)
	}
	if !bytes.Equal(fb, rb) {
		t.Errorf("seed %d: %s flattened kernel diverges from reference (flat %d hosts, ref %d hosts)",
			seed, kind, flat.NumHosts(), ref.NumHosts())
	}
}

func TestFFDKernelEquivalence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		items := randFleet(rng, rng.Intn(120)+4, false)
		cs := randConstraints(rng, items)
		f := FFD{HostSpec: testSpec, Bound: 1, RackSize: 8, Constraints: cs}
		flat, err := f.Pack(items)
		if err != nil {
			t.Fatalf("seed %d: flat: %v", seed, err)
		}
		ref, err := ffdReference(f, items)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		assertSameBytes(t, seed, "FFD", flat, ref)
	}
}

func TestBFDKernelEquivalence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		items := randFleet(rng, rng.Intn(120)+4, false)
		cs := randConstraints(rng, items)
		b := BFD{HostSpec: testSpec, Bound: 1, RackSize: 8, Constraints: cs}
		flat, err := b.Pack(items)
		if err != nil {
			t.Fatalf("seed %d: flat: %v", seed, err)
		}
		ref, err := bfdReference(b, items)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		assertSameBytes(t, seed, "BFD", flat, ref)
	}
}

func TestPCPKernelEquivalence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		items := randFleet(rng, rng.Intn(80)+4, true)
		cs := randConstraints(rng, items)
		corr := newTestCorr(items)
		pcp := PCP{HostSpec: testSpec, Bound: 1, RackSize: 8, Constraints: cs}
		var maxAvg float64
		switch seed % 3 {
		case 0:
			// Indexed lookups (the planner's fast path).
			pcp.CorrIdx = corr
		case 1:
			// Functional lookups only.
			pcp.Corr = corr.Corr
			maxAvg = 0.4
		default:
			// No correlation source: pure root-sum-square pooling.
		}
		pcp.MaxAvgCorr = maxAvg
		flat, err := pcp.Pack(items)
		if err != nil {
			t.Fatalf("seed %d: flat: %v", seed, err)
		}
		ref, err := pcpReference(pcp, items)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		assertSameBytes(t, seed, "PCP", flat, ref)
	}
}

// TestKernelEquivalenceCorrViews: the two correlation views of the same
// table (indexed and functional) must make identical packing decisions.
func TestKernelEquivalenceCorrViews(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		items := randFleet(rng, rng.Intn(60)+4, true)
		corr := newTestCorr(items)
		base := PCP{HostSpec: testSpec, Bound: 1, RackSize: 8, MaxAvgCorr: 0.5}

		idx := base
		idx.CorrIdx = corr
		fn := base
		fn.Corr = corr.Corr

		pi, err := idx.Pack(items)
		if err != nil {
			t.Fatalf("seed %d: indexed: %v", seed, err)
		}
		pf, err := fn.Pack(items)
		if err != nil {
			t.Fatalf("seed %d: functional: %v", seed, err)
		}
		assertSameBytes(t, seed, "PCP corr views", pi, pf)
	}
}
