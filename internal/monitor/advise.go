package monitor

import (
	"errors"
	"fmt"
	"time"

	"vmwild/internal/advisor"
	"vmwild/internal/catalog"
	"vmwild/internal/core"
	"vmwild/internal/trace"
)

// The advise operation closes the paper's loop inside the serving plane:
// the warehouse already holds the monitoring window, so instead of
// shipping a 30-day trace set to a planner process, a client asks the
// server to run the Section 8 advisor (workload attributes -> consolidation
// mode) plus the recommended planner's sizing-and-placement pass, and gets
// back the headline numbers.

// AdviseRequest parameterizes a server-side consolidation recommendation.
type AdviseRequest struct {
	// Spec is the uniform hardware spec assumed for every monitored
	// server (CPURPE2 must be positive).
	Spec trace.Spec
	// Epoch anchors hour zero of the aggregated series.
	Epoch time.Time
	// WindowHours restricts the analysis to the trailing window of the
	// aggregate (0 = the full retained history).
	WindowHours int
	// Host names the catalog target model (default the reference blade,
	// hs23-elite).
	Host string
}

// Advice is the advise operation's result.
type Advice struct {
	// Mode is the recommended consolidation mode; Reasons explain it.
	Mode    string   `json:"mode"`
	Reasons []string `json:"reasons"`
	// Attributes are the measured decision inputs (Figures 2, 3, 6).
	Attributes advisor.Attributes `json:"attributes"`
	// Servers and Hours describe the analyzed window.
	Servers int `json:"servers"`
	Hours   int `json:"hours"`
	// Planner/Provisioned/Migrations are the recommended planner's
	// placement pass over the same window: how many target hosts the
	// estate packs into and (dynamic only) the migrations ordered.
	Planner     string `json:"planner,omitempty"`
	Provisioned int    `json:"provisioned,omitempty"`
	Migrations  int    `json:"migrations,omitempty"`
	// PlanError is set when the recommendation stands but the placement
	// pass failed (window too short for the planner, say).
	PlanError string `json:"planError,omitempty"`
}

// Advise runs the advisor and the recommended planner over the warehouse's
// current data.
func (w *Warehouse) Advise(req AdviseRequest) (*Advice, error) {
	if req.Spec.CPURPE2 <= 0 {
		return nil, errNoCPURating
	}
	set, err := w.adviseSet(req)
	if err != nil {
		return nil, err
	}
	rec, err := advisor.Advise(set, advisor.Config{})
	if err != nil {
		return nil, fmt.Errorf("monitor: advise: %w", err)
	}
	adv := &Advice{
		Mode:       rec.Mode.String(),
		Reasons:    rec.Reasons,
		Attributes: rec.Attributes,
		Servers:    len(set.Servers),
		Hours:      set.Servers[0].Series.Len(),
	}

	hostName := req.Host
	if hostName == "" {
		hostName = catalog.HS23Elite.Name
	}
	host, err := catalog.Default().Lookup(hostName)
	if err != nil {
		return nil, fmt.Errorf("monitor: advise: %w", err)
	}
	in := core.Input{Monitoring: set, Host: host}
	var planner core.Planner
	switch rec.Mode {
	case advisor.ModeDynamic:
		// The dynamic planner needs a window to walk forward through;
		// replaying the analyzed window itself yields the advisory
		// migration/host counts without a separate evaluation set.
		in.Evaluation = set
		in.PlanOnly = true
		planner = core.Dynamic{}
	case advisor.ModeStochastic:
		planner = core.Stochastic{}
	default:
		planner = core.SemiStatic{}
	}
	plan, err := planner.Plan(in)
	if err != nil {
		// The mode recommendation stands on the measured attributes even
		// when the window is too short (or too degenerate) to place.
		adv.PlanError = err.Error()
		return adv, nil
	}
	adv.Planner = plan.Planner
	adv.Provisioned = plan.Provisioned
	adv.Migrations = plan.Migrations
	return adv, nil
}

// adviseSet assembles the analysis trace set from the live shards.
func (w *Warehouse) adviseSet(req AdviseRequest) (*trace.Set, error) {
	ids := w.Servers()
	if len(ids) == 0 {
		return nil, errors.New("monitor: advise: no monitored servers")
	}
	set := &trace.Set{Name: "advise"}
	for _, id := range ids {
		series, err := w.HourlySeriesWindow(id, req.Spec, req.Epoch, req.WindowHours)
		if err != nil {
			return nil, err
		}
		set.Servers = append(set.Servers, &trace.ServerTrace{ID: id, Spec: req.Spec, Series: series})
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return set, nil
}
