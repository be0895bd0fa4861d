package vmwild_test

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"vmwild"
)

// smallProfile trims a study profile so API tests stay fast; the full-size
// reproduction assertions live in internal/experiments.
func smallProfile(p *vmwild.Profile, servers int) *vmwild.Profile {
	p.Servers = servers
	return p
}

func TestProfilesAPI(t *testing.T) {
	ps := vmwild.Profiles()
	if len(ps) != 4 {
		t.Fatalf("got %d profiles, want 4", len(ps))
	}
	names := []string{"A", "B", "C", "D"}
	servers := []int{816, 445, 1390, 722}
	for i, p := range ps {
		if p.Name != names[i] {
			t.Errorf("profile %d name = %s, want %s", i, p.Name, names[i])
		}
		if p.Servers != servers[i] {
			t.Errorf("profile %s servers = %d, want %d (Table 2)", p.Name, p.Servers, servers[i])
		}
	}
	if vmwild.HS23Elite().Spec.RatioPerGB() != 160 {
		t.Error("reference blade ratio drifted from 160")
	}
}

func TestGenerateAPI(t *testing.T) {
	set, err := vmwild.Generate(smallProfile(vmwild.Banking(), 6), 48, vmwild.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Servers) != 6 {
		t.Fatalf("got %d servers", len(set.Servers))
	}
	if set.Servers[0].Series.Len() != 48 {
		t.Errorf("series length = %d", set.Servers[0].Series.Len())
	}
}

func TestStudyEndToEnd(t *testing.T) {
	study, err := vmwild.NewStudy(smallProfile(vmwild.Banking(), 40), vmwild.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if study.Profile().Name != "A" {
		t.Error("wrong profile")
	}
	if study.Monitoring().Servers[0].Series.Len() != vmwild.MonitoringHours {
		t.Error("monitoring window length wrong")
	}
	if study.Evaluation().Servers[0].Series.Len() != vmwild.EvaluationHours {
		t.Error("evaluation window length wrong")
	}

	rows, err := study.CompareCosts()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d cost rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Hosts <= 0 {
			t.Errorf("%s provisioned %d hosts", r.Planner, r.Hosts)
		}
		if r.Planner == "semi-static" && math.Abs(r.NormSpace-1) > 1e-9 {
			t.Errorf("vanilla normalized space = %v, want 1", r.NormSpace)
		}
	}

	plan, res, err := study.PlanAndReplay(vmwild.Dynamic())
	if err != nil {
		t.Fatal(err)
	}
	if res.Hours != vmwild.EvaluationHours {
		t.Errorf("replay hours = %d", res.Hours)
	}
	if plan.Provisioned <= 0 {
		t.Error("dynamic plan provisioned no hosts")
	}

	sens, err := study.Sensitivity([]float64{0.8, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(sens.Points) != 2 {
		t.Fatalf("sensitivity points = %d", len(sens.Points))
	}
	if sens.Points[1].DynamicHosts > sens.Points[0].DynamicHosts {
		t.Error("more usable capacity should not need more hosts")
	}

	if _, err := study.ActiveServers(); err != nil {
		t.Errorf("ActiveServers: %v", err)
	}
	if _, err := study.Utilization(); err != nil {
		t.Errorf("Utilization: %v", err)
	}
	if _, err := study.Contention(); err != nil {
		t.Errorf("Contention: %v", err)
	}
}

func TestStudyAnalysis(t *testing.T) {
	study, err := vmwild.NewStudy(smallProfile(vmwild.Beverage(), 30), vmwild.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	curves, err := study.PeakToAverageCPU()
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("got %d interval curves, want 3", len(curves))
	}
	if curves[0].CDF.Median() < curves[2].CDF.Median() {
		t.Error("1h peak/avg median should be at least the 4h one")
	}
	cov, err := study.CoVCPU()
	if err != nil {
		t.Fatal(err)
	}
	if cov.Len() != 30 {
		t.Errorf("CoV sample size = %d, want 30", cov.Len())
	}
	ratio, err := study.ResourceRatio()
	if err != nil {
		t.Fatal(err)
	}
	if ratio.BladeRatio != 160 {
		t.Error("blade ratio drifted")
	}
	bursty, err := study.SampleBurstiness(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bursty) != 2 {
		t.Error("want two sample servers")
	}
	if _, err := study.VerifyEmulator(); err != nil {
		t.Errorf("VerifyEmulator: %v", err)
	}
}

func TestStudyOptions(t *testing.T) {
	a, err := vmwild.NewStudy(smallProfile(vmwild.Airlines(), 10), vmwild.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := vmwild.NewStudy(smallProfile(vmwild.Airlines(), 10), vmwild.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	ua := a.Monitoring().Servers[0].Series.Samples[0]
	ub := b.Monitoring().Servers[0].Series.Samples[0]
	if ua == ub {
		t.Error("different seeds should change the traces")
	}
	if _, err := vmwild.NewStudy(smallProfile(vmwild.Airlines(), 10),
		vmwild.WithHost(vmwild.HS23Elite()), vmwild.WithVirtOverhead(0.1), vmwild.WithDedup(0.1)); err != nil {
		t.Errorf("options rejected: %v", err)
	}
}

func TestMicroStudies(t *testing.T) {
	olio, err := vmwild.OlioStudy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(olio.CPUMultiplier-7.9) > 0.1 {
		t.Errorf("olio CPU multiplier = %v", olio.CPUMultiplier)
	}
	migs, err := vmwild.MigrationStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(migs) == 0 {
		t.Error("migration study empty")
	}
}

func TestSummaries(t *testing.T) {
	s1, err := vmwild.NewStudy(smallProfile(vmwild.Banking(), 12), vmwild.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sums, err := vmwild.Summaries([]*vmwild.Study{s1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || sums[0].Servers != 12 {
		t.Errorf("summaries = %+v", sums)
	}
}

func TestWriteReportSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is exercised in internal/experiments")
	}
	// WriteReport at full scale is covered by internal/experiments; here
	// we only check the wiring is callable through the public API by
	// rendering into a builder and checking for a known header.
	var sb strings.Builder
	if err := vmwild.WriteReport(&sb, vmwild.DefaultSeed); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table 2") {
		t.Error("report missing Table 2")
	}
}

// TestIntegrationPipeline exercises the full production path end to end:
// fleet generation -> per-minute agent samples over TCP -> warehouse
// aggregation -> query-protocol fetch -> advisor -> planner -> emulator.
func TestIntegrationPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a week of telemetry")
	}
	profile := vmwild.Banking()
	profile.Servers = 10
	const hours = 10 * 24
	fleet, err := vmwild.Generate(profile, hours, vmwild.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)

	warehouse := vmwild.NewWarehouse(0)
	addr, err := warehouse.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer warehouse.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	specs := make(map[vmwild.ServerID]vmwild.Spec)
	var ids []vmwild.ServerID
	for i, st := range fleet.Servers {
		specs[st.ID] = st.Spec
		ids = append(ids, st.ID)
		src, err := vmwild.NewTraceSource(st, epoch, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		// Sample every 10 simulated minutes to keep the test quick
		// while still exercising sub-hourly aggregation.
		sender := &vmwild.ReliableSender{Addr: addr, AgentID: string(st.ID)}
		for m := 0; m < hours*60; m += 10 {
			s, err := src.Collect(epoch.Add(time.Duration(m) * time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			sender.Queue(s)
		}
		err = sender.Flush(ctx, 3)
		sender.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := warehouse.WaitForSamples(ctx, ids, hours*6); err != nil {
		t.Fatalf("warehouse incomplete: %v (stats %+v)", err, warehouse.Stats())
	}

	qs := vmwild.NewQueryServer(warehouse)
	qaddr, err := qs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	client, err := vmwild.DialQuery(ctx, qaddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	collected, err := client.FetchSet(profile.Name, specs, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(collected.Servers) != profile.Servers {
		t.Fatalf("collected %d servers, want %d", len(collected.Servers), profile.Servers)
	}

	// The warehouse view must track the ground-truth demand closely
	// (agents jitter ~5% per minute; hourly averages converge).
	truth := fleet.Servers[0].Series.Samples[12].CPU
	seen := collected.Servers[0].Series.Samples[12].CPU
	if truth > 1 && (seen < truth*0.8 || seen > truth*1.2) {
		t.Errorf("aggregated CPU %v diverges from ground truth %v", seen, truth)
	}

	// Advisor on the collected (not ground-truth) data.
	rec, err := vmwild.Advise(collected, vmwild.AdvisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Mode == 0 {
		t.Fatal("advisor returned no mode")
	}

	// Plan on the first week, replay the rest through the emulator.
	mon, err := collected.SliceAll(0, 7*24)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := collected.SliceAll(7*24, hours)
	if err != nil {
		t.Fatal(err)
	}
	in := vmwild.PlanInput{Monitoring: mon, Evaluation: eval, Host: vmwild.HS23Elite()}
	plan, err := vmwild.Dynamic().Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Provisioned < 1 {
		t.Fatal("plan provisioned nothing")
	}
}

// TestStudyFromTraces runs the study API on externally loaded traces: the
// path real engagements take (CSV export -> planners -> emulator).
func TestStudyFromTraces(t *testing.T) {
	profile := vmwild.Beverage()
	profile.Servers = 15
	full, err := vmwild.Generate(profile, 24*10, 21)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through CSV to prove the external path works.
	var buf strings.Builder
	if err := vmwild.WriteTraceCSV(&buf, full); err != nil {
		t.Fatal(err)
	}
	loaded, err := vmwild.ReadTraceCSV(strings.NewReader(buf.String()), "external")
	if err != nil {
		t.Fatal(err)
	}
	mon, err := loaded.SliceAll(0, 24*7)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := loaded.SliceAll(24*7, 24*10)
	if err != nil {
		t.Fatal(err)
	}
	study, err := vmwild.NewStudyFromTraces("external", mon, eval)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := study.CompareCosts()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d planner rows", len(rows))
	}
	for _, r := range rows {
		if r.Hosts < 1 {
			t.Errorf("%s provisioned nothing on external traces", r.Planner)
		}
	}
	if _, err := study.CoVCPU(); err != nil {
		t.Errorf("analysis on external traces: %v", err)
	}
	// Mismatched windows are rejected.
	if _, err := vmwild.NewStudyFromTraces("bad", mon, &vmwild.TraceSet{}); err == nil {
		t.Error("expected error for invalid evaluation set")
	}
}
