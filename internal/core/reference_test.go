package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vmwild/internal/constraints"
	"vmwild/internal/placement"
	"vmwild/internal/sizing"
	"vmwild/internal/trace"
)

// The adapter oracle: consolidateReference is consolidate without any of
// its incremental machinery — no targetAgg quick rejects, no cross-interval
// failure certificates, no fail-fast on the largest mover, and a target
// list rebuilt fresh for every source host instead of reused across failed
// attempts. It tries every active host, emptiest first, with the full
// greedy evacuation. consolidate must make exactly the moves it makes.

// consolidateReference evacuates lightly loaded hosts whose VMs all fit
// elsewhere within the hysteresis headroom, trying every host.
func consolidateReference(p *placement.Placement, in Input) (int, float64) {
	cap := p.Capacity()
	limit := sizing.Demand{CPU: cap.CPU * evacuationHeadroom, Mem: cap.Mem * evacuationHeadroom}
	type candidate struct {
		id   string
		idx  int
		load float64
	}
	var active []candidate
	for i, h := range p.Hosts() {
		if len(p.VMsAt(i)) > 0 {
			u := p.UsedAt(i)
			active = append(active, candidate{id: h.ID, idx: i, load: max(u.CPU/cap.CPU, u.Mem/cap.Mem)})
		}
	}
	slices.SortFunc(active, func(a, b candidate) int {
		if c := cmp.Compare(a.load, b.load); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})

	var (
		moves  int
		dataMB float64
	)
	for _, cand := range active {
		vis := p.VMIndicesAt(cand.idx)
		if len(vis) == 0 {
			continue
		}
		var movers []evacMover
		for _, vi := range vis {
			it := p.ItemAt(int(vi))
			movers = append(movers, evacMover{it: it, vi: vi, key: max(it.Demand.CPU/cap.CPU, it.Demand.Mem/cap.Mem)})
		}
		slices.SortFunc(movers, func(a, b evacMover) int {
			if c := cmp.Compare(b.key, a.key); c != 0 {
				return c
			}
			return cmp.Compare(a.it.ID, b.it.ID)
		})
		var targets []evacTarget
		for _, t := range evacTargets(p, limit, nil) {
			if t.id != cand.id {
				targets = append(targets, t)
			}
		}
		pairs, _, ok := planEvacuation(p, targets, movers, in, nil)
		if !ok {
			continue
		}
		slices.SortFunc(pairs, func(a, b evacMove) int {
			return cmp.Compare(a.it.ID, b.it.ID)
		})
		for _, mv := range pairs {
			p.MoveAt(int(mv.vi), mv.targetIdx)
			moves++
			dataMB += mv.it.Demand.Mem
		}
	}
	return moves, dataMB
}

// referenceStep is Adapter.Step after the initial pack, spelled out with the
// ID-keyed resize, fresh repair buffers and consolidateReference.
func referenceStep(p *placement.Placement, in Input, items []placement.Item) (StepResult, error) {
	for _, it := range items {
		d := sizing.Demand{
			CPU: min(it.Demand.CPU, in.Host.Spec.CPURPE2*in.bound()),
			Mem: min(it.Demand.Mem, in.Host.Spec.MemMB*in.bound()),
		}
		if err := p.UpdateDemand(it.ID, d); err != nil {
			return StepResult{}, err
		}
	}
	res := StepResult{OverloadedHosts: p.NumOverloaded()}
	moved, dataMB, err := repairOverloads(p, in, &evacState{})
	if err != nil {
		return StepResult{}, err
	}
	res.Migrations += moved
	res.MigrationDataMB += dataMB
	moved, dataMB = consolidateReference(p, in)
	res.Migrations += moved
	res.MigrationDataMB += dataMB
	res.ActiveHosts = p.ActiveHosts()
	return res, nil
}

// driftFleet is a seeded fleet whose demands random-walk between intervals.
// Base demands are quantized so sort-key ties are common. Most VMs are small,
// so evacuations can fill the targets' residual headroom almost exactly and
// the sum reject is decided by a few RPE2. One in five is mid-sized, and a
// few whales take most of a host. Each VM's level moves by at most one
// quarter-step per interval, between a quarter and twice its base, so hosts
// drift across the hysteresis limit and back.
type driftFleet struct {
	rng    *rand.Rand
	base   []placement.Item
	levels []int
}

func newDriftFleet(rng *rand.Rand, n int) *driftFleet {
	f := &driftFleet{rng: rng, base: make([]placement.Item, n), levels: make([]int, n)}
	for i := range f.base {
		cpu := float64(rng.Intn(10)+1) * 10
		mem := float64(rng.Intn(10)+1) * 100
		if rng.Intn(5) == 0 {
			cpu = float64(rng.Intn(12)+1) * 25
			mem = float64(rng.Intn(12)+1) * 250
		}
		if rng.Intn(15) == 0 {
			cpu = 600 // whale: most of a host's 800 usable RPE2
		}
		f.base[i] = placement.Item{
			ID:     trace.ServerID(fmt.Sprintf("vm%04d", i)),
			Demand: sizing.Demand{CPU: cpu, Mem: mem},
		}
		f.levels[i] = 4
	}
	return f
}

// next advances every VM's level and returns the interval's reservations.
func (f *driftFleet) next() []placement.Item {
	items := make([]placement.Item, len(f.base))
	for i, b := range f.base {
		f.levels[i] = min(8, max(1, f.levels[i]+f.rng.Intn(3)-1))
		scale := float64(f.levels[i]) / 4
		items[i] = placement.Item{ID: b.ID, Demand: sizing.Demand{CPU: b.Demand.CPU * scale, Mem: b.Demand.Mem * scale}}
	}
	return items
}

// driftConstraints returns no constraints, AvoidHost vetoes on the first
// hosts, or an anti-affinity group, by seed.
func driftConstraints(seed int64, items []placement.Item) constraints.Set {
	switch seed % 3 {
	case 1:
		return constraints.Set{
			constraints.AvoidHost{VM: items[0].ID, Host: "h0000"},
			constraints.AvoidHost{VM: items[1].ID, Host: "h0001"},
			constraints.AvoidHost{VM: items[2].ID, Host: "h0000"},
		}
	case 2:
		return constraints.Set{constraints.AntiAffinity{Group: []trace.ServerID{items[0].ID, items[1].ID, items[2].ID}}}
	}
	return nil
}

// TestAdapterMatchesReference: across seeded multi-interval fleets the
// production adapter and the reference step start from the same FFD pack
// and must then agree after every interval — identical placement Encode
// bytes and identical StepResults, the migrated data volume bit for bit.
func TestAdapterMatchesReference(t *testing.T) {
	var aboveLimit, migrations int
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fleet := newDriftFleet(rng, 20+rng.Intn(181))
		intervals := 12 + rng.Intn(9)
		in := Input{Host: testHost, Constraints: driftConstraints(seed, fleet.base)}

		a, err := NewAdapter(in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Step(fleet.next()); err != nil {
			t.Fatalf("seed %d: initial pack: %v", seed, err)
		}
		ref := a.Current().Clone()
		limit := ref.Capacity().Scale(evacuationHeadroom)
		for k := 1; k < intervals; k++ {
			items := fleet.next()
			got, gotErr := a.Step(items)
			want, wantErr := referenceStep(ref, in, items)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d interval %d: adapter error %v, reference error %v", seed, k, gotErr, wantErr)
			}
			if gotErr != nil {
				break
			}
			if got.Migrations != want.Migrations || got.ActiveHosts != want.ActiveHosts ||
				got.OverloadedHosts != want.OverloadedHosts ||
				math.Float64bits(got.MigrationDataMB) != math.Float64bits(want.MigrationDataMB) {
				t.Fatalf("seed %d interval %d: adapter %+v, reference %+v", seed, k, got, want)
			}
			gb, err := a.Current().Encode()
			if err != nil {
				t.Fatal(err)
			}
			wb, err := ref.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, wb) {
				t.Fatalf("seed %d interval %d: adapter placement diverges from reference", seed, k)
			}
			migrations += got.Migrations
			for i := range ref.Hosts() {
				if u := ref.UsedAt(i); u.CPU > limit.CPU || u.Mem > limit.Mem {
					aboveLimit++
				}
			}
		}
	}
	// The fleets must exercise what the oracle checks: consolidation moves,
	// and hosts above the hysteresis limit whose residuals go negative.
	if migrations == 0 || aboveLimit == 0 {
		t.Fatalf("fleets too easy: %d migrations, %d host-intervals above the hysteresis limit", migrations, aboveLimit)
	}
}
