package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"vmwild/internal/emulator"
	"vmwild/internal/placement"
	"vmwild/internal/predict"
	"vmwild/internal/sizing"
	"vmwild/internal/trace"
)

// Dynamic is the dynamic consolidation planner (Section 5.1): every
// consolidation interval (2 hours by default) it re-sizes each VM to its
// predicted peak demand for the interval, then adapts the placement with
// the cheapest actions that fix overloads and the evacuations that free
// whole hosts, counting every live migration it orders. A fraction of every
// host (1 - Bound, 20% by default) stays reserved for the live migrations
// themselves — Observation 4's price of admission.
//
// The planner walks forward through the evaluation window using only
// history available at each decision point; the gap between its predicted
// peaks and the realized demand is what produces the contention the
// emulator later measures (Figures 8, 9, 11).
type Dynamic struct{}

// Name implements Planner.
func (Dynamic) Name() string { return "dynamic" }

// evacuationHeadroom keeps a little slack when consolidating onto fewer
// hosts, so the next interval's growth does not immediately re-trigger
// migrations (anti-thrash hysteresis).
const evacuationHeadroom = 0.97

// evacSumSlack is the margin the sum-capacity reject leaves before declaring
// an evacuation infeasible: large enough to absorb one 1e-9 fit tolerance per
// mover plus summation rounding for any realistic fleet, small enough that a
// genuinely feasible evacuation is never rejected.
const evacSumSlack = 1e-3

// Plan implements Planner.
func (Dynamic) Plan(in Input) (*Plan, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	if in.Evaluation == nil || len(in.Evaluation.Servers) == 0 {
		return nil, errors.New("dynamic: no evaluation window to plan over")
	}
	if len(in.Evaluation.Servers) != len(in.Monitoring.Servers) {
		return nil, errors.New("dynamic: monitoring and evaluation sets differ in servers")
	}

	interval := in.intervalHours()
	evalHours := in.Evaluation.Servers[0].Series.Len()
	intervals := evalHours / interval
	if intervals < 1 {
		return nil, fmt.Errorf("dynamic: evaluation window of %d hours is shorter than one interval", evalHours)
	}

	// The Predict + Size steps either come precomputed (shared across
	// plans by experiments.Context) or run inline; both paths execute
	// SizeDynamicDemands, so the resulting reservations are identical.
	m := in.Demands
	if m == nil {
		var err error
		m, err = SizeDynamicDemands(in)
		if err != nil {
			return nil, err
		}
	} else if err := m.compatible(in, interval, intervals); err != nil {
		return nil, err
	}

	n := len(in.Monitoring.Servers)
	plan := &Plan{Planner: "dynamic"}
	adapter, err := NewAdapter(in)
	if err != nil {
		return nil, err
	}
	var placements []*placement.Placement
	if !in.PlanOnly {
		placements = make([]*placement.Placement, 0, intervals)
	}
	items := make([]placement.Item, n)
	for k := 0; k < intervals; k++ {
		row := m.Demands[k]
		for i := 0; i < n; i++ {
			items[i] = placement.Item{ID: m.IDs[i], Demand: row[i]}
		}

		step, err := adapter.Step(items)
		if err != nil {
			return nil, fmt.Errorf("dynamic: interval %d: %w", k, err)
		}
		plan.Migrations += step.Migrations
		plan.MigrationDataMB += step.MigrationDataMB
		if step.ActiveHosts > plan.Provisioned {
			plan.Provisioned = step.ActiveHosts
		}
		if in.PlanOnly {
			continue
		}
		snap, err := adapter.Snapshot()
		if err != nil {
			return nil, err
		}
		placements = append(placements, snap)
	}
	if !in.PlanOnly {
		plan.Schedule = emulator.IntervalSchedule{IntervalHours: interval, Placements: placements}
	}
	return plan, nil
}

// DefaultCPUPredictor is the dynamic planner's CPU sizing estimator: the
// larger of the most recent interval's peak and the same interval's peak
// over the previous week, with 10% headroom. Sizing at the weekly
// time-of-day envelope is what a production planner that must bound SLA
// risk does; it still under-predicts record-setting demand surges, which is
// where the contention of Figures 8-9 comes from.
func DefaultCPUPredictor() predict.Predictor {
	return predict.Combined{
		Predictors: []predict.Predictor{
			predict.RecentPeak{Windows: 1},
			predict.Periodic{Days: 7, SamplesPerDay: 24},
		},
		Headroom: 1.10,
	}
}

// DefaultMemPredictor is the memory analogue with smaller headroom —
// memory demand is an order of magnitude less bursty (Observation 2).
func DefaultMemPredictor() predict.Predictor {
	return predict.Combined{
		Predictors: []predict.Predictor{
			predict.RecentPeak{Windows: 1},
			predict.Periodic{Days: 3, SamplesPerDay: 24},
		},
		Headroom: 1.05,
	}
}

// repairOverloads migrates VMs off hosts whose resized demand exceeds the
// utilization bound, cheapest (smallest-memory) VMs first, preferring the
// most-loaded feasible target so the packing stays tight. Returns the moves
// made and the memory they transferred.
func repairOverloads(p *placement.Placement, in Input, st *evacState) (int, float64, error) {
	var (
		moves  int
		dataMB float64
	)
	over, cands := st.overIdx[:0], st.cands[:0]
	defer func() { st.overIdx, st.cands = over[:0], cands[:0] }()
	// The overloaded set is fixed before any repair: targets are always
	// checked with FitsAt (or freshly opened), so a repair move can never
	// overload another host.
	over = p.OverloadedInto(over)
	for _, hi := range over {
		cands = cands[:0]
		for _, vi := range p.VMIndicesAt(hi) {
			cands = append(cands, repairCand{it: p.ItemAt(int(vi)), vi: vi})
		}
		cap := p.Capacity()
		// Candidate order: cheapest migrations first. Repairs rarely need
		// more than a couple of moves, so instead of sorting the whole
		// host, each round selects the minimum-(Mem, ID) candidate still
		// untried — the picks come out in exactly sorted order (the key is
		// a strict total order), without the O(n log n) sort.
		n := len(cands)
		for n > 0 {
			used := p.UsedAt(hi)
			if used.CPU <= cap.CPU+1e-9 && used.Mem <= cap.Mem+1e-9 {
				break
			}
			best := 0
			for i := 1; i < n; i++ {
				if cands[i].it.Demand.Mem < cands[best].it.Demand.Mem ||
					(cands[i].it.Demand.Mem == cands[best].it.Demand.Mem && cands[i].it.ID < cands[best].it.ID) {
					best = i
				}
			}
			c := cands[best]
			cands[best] = cands[n-1]
			n--
			it := c.it
			target := pickTarget(p, hi, it, in)
			if target < 0 {
				// Power a previously freed host back on before
				// racking a new one.
				for i, h := range p.Hosts() {
					if i != hi && len(p.VMsAt(i)) == 0 && in.Constraints.Permits(it.ID, h.ID, p) == nil {
						target = i
						break
					}
				}
			}
			if target < 0 {
				h := p.OpenHost()
				if in.Constraints.Permits(it.ID, h.ID, p) != nil {
					continue
				}
				target = len(p.Hosts()) - 1
			}
			p.MoveAt(int(c.vi), target)
			moves++
			dataMB += it.Demand.Mem
		}
		used := p.UsedAt(hi)
		if used.CPU > cap.CPU+1e-9 || used.Mem > cap.Mem+1e-9 {
			return moves, dataMB, fmt.Errorf("host %s cannot be repaired within constraints", p.Hosts()[hi].ID)
		}
	}
	return moves, dataMB, nil
}

// repairCand is one overloaded-host resident: its item plus dense index, so
// the eventual move skips ID-keyed lookups.
type repairCand struct {
	it placement.Item
	vi int32
}

// pickTarget returns the index of the most-loaded other host that fits the
// item and passes constraints, or -1 if none. exclude is the host's index in
// Hosts().
func pickTarget(p *placement.Placement, exclude int, it placement.Item, in Input) int {
	if len(in.Constraints) == 0 {
		// No constraint can veto, so the scan is the pure most-loaded-fit
		// kernel placement implements over its flat arrays.
		return p.MostLoadedFit(exclude, it.Demand)
	}
	best, bestLoad := -1, -1.0
	cap := p.Capacity()
	for i, h := range p.Hosts() {
		if i == exclude || len(p.VMsAt(i)) == 0 {
			continue
		}
		if !p.FitsAt(i, it.Demand) {
			continue
		}
		if in.Constraints.Permits(it.ID, h.ID, p) != nil {
			continue
		}
		u := p.UsedAt(i)
		load := max(u.CPU/cap.CPU, u.Mem/cap.Mem)
		if load > bestLoad {
			bestLoad, best = load, i
		}
	}
	return best
}

// evacState carries the dynamic adapter's cross-interval consolidation
// state: reusable scratch buffers (an evacuation attempt allocates nothing
// in steady state) and, per source host, a failure certificate — a VM that
// fit no evacuation target when the host last failed to empty.
//
// The certificate is re-validated before use, so reuse is sound, not
// heuristic: if the certified VM still lives on the host and its current
// demand exceeds every current target's full residual headroom in CPU or
// memory, the greedy evacuation must fail — residuals only shrink as
// earlier movers consume them, float addition is monotone, and constraint
// vetoes can only remove further options. The attempt (sorting movers,
// walking targets per mover) is skipped without being able to change the
// outcome. Certificates whose VM moved away or now fits somewhere are
// discarded and the full attempt runs.
type evacState struct {
	certs   map[string]trace.ServerID
	targets []evacTarget
	scratch []evacTarget
	movers  []evacMover
	pairs   []evacMove
	overIdx []int
	cands   []repairCand
}

// evacMover is one VM to evacuate: its item, dense index and precomputed
// sort key.
type evacMover struct {
	it  placement.Item
	vi  int32
	key float64
}

// evacMove is one planned relocation, index-addressed so applying it skips
// every ID-keyed lookup.
type evacMove struct {
	vi        int32
	it        placement.Item
	targetIdx int
}

// consolidate evacuates lightly loaded hosts whose VMs all fit elsewhere
// (with hysteresis headroom), switching the freed hosts off. Hosts are
// tried emptiest-first. Quick rejects against target maxima and sums,
// cross-interval failure certificates and buffer reuse skip attempts that
// must fail; all are outcome-preserving, so the moves made (and the
// placement bytes) equal those of the plain walk that tries every host
// (consolidateReference, the test oracle).
func consolidate(p *placement.Placement, in Input, st *evacState) (int, float64) {
	cap := p.Capacity()
	limit := sizing.Demand{CPU: cap.CPU * evacuationHeadroom, Mem: cap.Mem * evacuationHeadroom}
	// Loads are snapshotted before sorting (the placement is not mutated
	// while the order is established, so precomputing reads the same
	// values the comparator used to).
	type candidate struct {
		id   string
		idx  int
		load float64
	}
	active := make([]candidate, 0, len(p.Hosts()))
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
	if st.certs == nil {
		st.certs = make(map[string]trace.ServerID)
	}
	allTargets, scratch, movers, pairs := st.targets[:0], st.scratch[:0], st.movers[:0], st.pairs[:0]
	defer func() {
		st.targets, st.scratch, st.movers, st.pairs = allTargets[:0], scratch[:0], movers[:0], pairs[:0]
	}()
	// The sorted target list is a function of the placement state, which
	// only changes when an evacuation succeeds — most attempts fail, so
	// the list (and its O(n log n) sort) is rebuilt on success instead of
	// per source host. Dropping the source from a copy preserves relative
	// order, so every attempt sees exactly the list a fresh build would
	// produce.
	allTargets = evacTargets(p, limit, allTargets)
	agg := aggregateTargets(allTargets)
	for _, cand := range active {
		src := cand.id
		vis := p.VMIndicesAt(cand.idx)
		if len(vis) == 0 {
			continue
		}
		// The exclude-self residual view is derived in O(1) from the
		// aggregates: the per-resource maximum is the global top value
		// unless this source holds it (then the runner-up, which under
		// ties equals the top), and the placeable sum is the global
		// positive-residual sum minus this host's own headroom. The
		// source's residual is recomputed with the exact expression
		// evacTargets used, and the placement has not mutated since the
		// list was built, so the values match bit for bit.
		maxRC, maxRM := agg.maxRC1, agg.maxRM1
		if agg.maxRCIdx == cand.idx {
			maxRC = agg.maxRC2
		}
		if agg.maxRMIdx == cand.idx {
			maxRM = agg.maxRM2
		}
		u := p.UsedAt(cand.idx)
		rcSrc, rmSrc := limit.CPU-u.CPU, limit.Mem-u.Mem
		sumRC, sumRM := agg.sumRC, agg.sumRM
		if rcSrc > 0 {
			sumRC -= rcSrc
		}
		if rmSrc > 0 {
			sumRM -= rmSrc
		}
		// Sum-capacity reject: greedy placement consumes residuals by
		// exactly each mover's demand (within the 1e-9 per-placement fit
		// tolerance), so when the source's total used demand exceeds the
		// summed residuals by more than the slack — which covers n
		// accumulated tolerances plus float error — every assignment order
		// must leave some mover without a target.
		if u.CPU > sumRC+evacSumSlack || u.Mem > sumRM+evacSumSlack {
			continue
		}
		if certID, ok := st.certs[src]; ok {
			if h, on := p.HostOf(certID); on && h == src {
				if it, have := p.Item(certID); have && fitsNoTarget(it, allTargets, cand.idx) {
					continue
				}
			} else {
				delete(st.certs, src)
			}
		}
		movers = movers[:0]
		var reject trace.ServerID
		big := -1
		for _, vi := range vis {
			it := p.ItemAt(int(vi))
			// A VM larger than the best per-resource residual across
			// all targets fits nowhere, so the whole evacuation is
			// doomed; certify and skip the attempt.
			if it.Demand.CPU > maxRC+1e-9 || it.Demand.Mem > maxRM+1e-9 {
				reject = it.ID
				break
			}
			key := max(it.Demand.CPU/cap.CPU, it.Demand.Mem/cap.Mem)
			if big < 0 || key > movers[big].key || (key == movers[big].key && it.ID < movers[big].it.ID) {
				big = len(movers)
			}
			movers = append(movers, evacMover{it: it, vi: vi, key: key})
		}
		if reject != "" {
			st.certs[src] = reject
			continue
		}
		// Fail fast on the mover the sort would place first (largest key,
		// ties by ID): greedy tries it against full residuals, so if it
		// fits no target on capacity alone the attempt must fail there —
		// the identical certificate planEvacuation would return — and the
		// sort plus planning walk are skipped.
		if big >= 0 && fitsNoTarget(movers[big].it, allTargets, cand.idx) {
			st.certs[src] = movers[big].it.ID
			continue
		}
		// All rejects passed — materialize the consumable target copy for
		// the real attempt.
		scratch = scratch[:0]
		for _, t := range allTargets {
			if t.id != src {
				scratch = append(scratch, t)
			}
		}
		// Biggest VMs first.
		slices.SortFunc(movers, func(a, b evacMover) int {
			if c := cmp.Compare(b.key, a.key); c != 0 {
				return c
			}
			return cmp.Compare(a.it.ID, b.it.ID)
		})
		var (
			stuck trace.ServerID
			ok    bool
		)
		pairs, stuck, ok = planEvacuation(p, scratch, movers, in, pairs[:0])
		if !ok {
			st.certs[src] = stuck
			continue
		}
		delete(st.certs, src)
		// Apply in sorted order, not plan order: assignment order fixes
		// the VM order on each host, which downstream float summation
		// (emulator replay) must see deterministically. planEvacuation
		// verified feasibility of every pair, so the moves are applied
		// unconditionally through the index-addressed fast path.
		slices.SortFunc(pairs, func(a, b evacMove) int {
			return cmp.Compare(a.it.ID, b.it.ID)
		})
		for _, mv := range pairs {
			p.MoveAt(int(mv.vi), mv.targetIdx)
			moves++
			dataMB += mv.it.Demand.Mem
		}
		allTargets = evacTargets(p, limit, allTargets[:0])
		agg = aggregateTargets(allTargets)
	}
	return moves, dataMB
}

// targetAgg summarizes a target list for O(1) exclude-one queries: the top
// two residuals per resource (with the top holder's host index) and the sum
// of positive residuals. Only positive residuals count as placeable
// headroom; hosts already above the hysteresis limit must not drag the sum
// down, or the sum reject would veto feasible evacuations.
type targetAgg struct {
	maxRC1, maxRC2 float64
	maxRCIdx       int
	maxRM1, maxRM2 float64
	maxRMIdx       int
	sumRC, sumRM   float64
}

func aggregateTargets(ts []evacTarget) targetAgg {
	a := targetAgg{
		maxRC1: math.Inf(-1), maxRC2: math.Inf(-1), maxRCIdx: -1,
		maxRM1: math.Inf(-1), maxRM2: math.Inf(-1), maxRMIdx: -1,
	}
	for i := range ts {
		t := &ts[i]
		if t.cpu > a.maxRC1 {
			a.maxRC2, a.maxRC1, a.maxRCIdx = a.maxRC1, t.cpu, t.idx
		} else if t.cpu > a.maxRC2 {
			a.maxRC2 = t.cpu
		}
		if t.mem > a.maxRM1 {
			a.maxRM2, a.maxRM1, a.maxRMIdx = a.maxRM1, t.mem, t.idx
		} else if t.mem > a.maxRM2 {
			a.maxRM2 = t.mem
		}
		if t.cpu > 0 {
			a.sumRC += t.cpu
		}
		if t.mem > 0 {
			a.sumRM += t.mem
		}
	}
	return a
}

// fitsNoTarget reports whether the item exceeds every target's full
// residual headroom (the host at index exclude skipped) — the certificate
// validity test.
func fitsNoTarget(it placement.Item, targets []evacTarget, exclude int) bool {
	for i := range targets {
		if targets[i].idx == exclude {
			continue
		}
		if !(it.Demand.CPU > targets[i].cpu+1e-9 || it.Demand.Mem > targets[i].mem+1e-9) {
			return false
		}
	}
	return true
}

// evacTarget is one candidate evacuation destination: residual headroom
// against the hysteresis limit, plus the precomputed fill-order key and the
// host's index in Hosts() for index-addressed application.
type evacTarget struct {
	id       string
	idx      int
	cpu, mem float64
	key      float64
}

// evacTargets lists every active host with its residual headroom, sorted
// most-loaded first (ties by ID) — the fill order of planEvacuation. The
// result is appended to buf.
func evacTargets(p *placement.Placement, limit sizing.Demand, buf []evacTarget) []evacTarget {
	targets := buf
	for i, h := range p.Hosts() {
		if len(p.VMsAt(i)) == 0 {
			continue
		}
		u := p.UsedAt(i)
		rc, rm := limit.CPU-u.CPU, limit.Mem-u.Mem
		targets = append(targets, evacTarget{id: h.ID, idx: i, cpu: rc, mem: rm, key: min(rc/limit.CPU, rm/limit.Mem)})
	}
	slices.SortFunc(targets, func(a, b evacTarget) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	return targets
}

// planEvacuation checks whether every mover fits onto the candidate targets
// within the hysteresis headroom and constraints, appending the planned
// moves to pairs. targets is consumed (residuals are decremented in place);
// callers pass a scratch copy. On failure it returns the mover that fit
// nowhere — the failure certificate. The overlay view (constraints seeing
// the post-move world) is only materialized when constraints exist; without
// them the map bookkeeping is dead weight the hot path skips.
func planEvacuation(p *placement.Placement, targets []evacTarget, movers []evacMover, in Input, pairs []evacMove) ([]evacMove, trace.ServerID, bool) {
	constrained := len(in.Constraints) > 0
	var (
		assignment map[trace.ServerID]string
		view       overlayView
	)
	if constrained {
		assignment = make(map[trace.ServerID]string, len(movers))
		view = overlayView{base: p, moved: assignment}
	}
	for _, mv := range movers {
		it := mv.it
		placed := false
		for t := range targets {
			r := &targets[t]
			if it.Demand.CPU > r.cpu+1e-9 || it.Demand.Mem > r.mem+1e-9 {
				continue
			}
			if constrained && in.Constraints.Permits(it.ID, r.id, view) != nil {
				continue
			}
			r.cpu -= it.Demand.CPU
			r.mem -= it.Demand.Mem
			if constrained {
				assignment[it.ID] = r.id
			}
			pairs = append(pairs, evacMove{vi: mv.vi, it: it, targetIdx: r.idx})
			placed = true
			break
		}
		if !placed {
			return pairs, it.ID, false
		}
	}
	return pairs, "", true
}

// overlayView presents the placement as if the planned (but not yet
// committed) evacuation moves had already happened, so constraints see the
// post-move world while the plan is being built.
type overlayView struct {
	base  *placement.Placement
	moved map[trace.ServerID]string
}

func (v overlayView) HostOf(vm trace.ServerID) (string, bool) {
	if t, ok := v.moved[vm]; ok {
		return t, true
	}
	return v.base.HostOf(vm)
}

func (v overlayView) VMsOn(host string) []trace.ServerID {
	var out []trace.ServerID
	for _, vm := range v.base.VMsOn(host) {
		if t, ok := v.moved[vm]; ok && t != host {
			continue
		}
		out = append(out, vm)
	}
	var incoming []trace.ServerID
	for vm, t := range v.moved {
		if t == host {
			if cur, ok := v.base.HostOf(vm); !ok || cur != host {
				incoming = append(incoming, vm)
			}
		}
	}
	// Sorted, not map order, so constraint checks see a stable view.
	slices.Sort(incoming)
	return append(out, incoming...)
}

func (v overlayView) RackOf(host string) string { return v.base.RackOf(host) }
