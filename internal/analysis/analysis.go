// Package analysis implements the paper's trace-analysis studies
// (Section 4): per-server burstiness of CPU and memory demand —
// peak-to-average ratio over consolidation intervals and coefficient of
// variability (Figures 2-5) — and the aggregate CPU-to-memory resource
// ratio compared against the reference blade (Figure 6).
package analysis

import (
	"errors"
	"fmt"

	"vmwild/internal/stats"
	"vmwild/internal/trace"
)

// PeakToAverageCDF computes, for every server in the set, the ratio of peak
// to average demand of resource r when demand is estimated per
// consolidation interval of intervalHours (the paper uses 1, 2 and 4). The
// per-interval demand estimate is the interval maximum, matching the max
// sizing function; the ratio is the monthly peak of those estimates over
// their mean. The resulting sample (one ratio per server) is returned as an
// empirical CDF — one curve of Figures 2 and 4.
func PeakToAverageCDF(set *trace.Set, intervalHours int, r trace.Resource) (*stats.CDF, error) {
	if intervalHours < 1 {
		return nil, errors.New("analysis: interval must be at least one hour")
	}
	ratios := make([]float64, 0, len(set.Servers))
	var buf []float64
	for _, st := range set.Servers {
		demands, err := st.Series.IntervalsInto(buf, intervalHours, r, stats.Max)
		if err != nil {
			return nil, fmt.Errorf("server %s: %w", st.ID, err)
		}
		buf = demands
		ratios = append(ratios, stats.PeakToAverage(demands))
	}
	return stats.NewCDF(ratios)
}

// CoVCDF computes the coefficient of variability of resource r's hourly
// demand for every server and returns the per-server sample as a CDF — one
// curve of Figures 3 and 5. CoV >= 1 marks a heavy-tailed server.
func CoVCDF(set *trace.Set, r trace.Resource) (*stats.CDF, error) {
	covs := make([]float64, 0, len(set.Servers))
	for _, st := range set.Servers {
		covs = append(covs, stats.CoV(st.Series.Col(r)))
	}
	return stats.NewCDF(covs)
}

// ResourceRatios computes, for every consolidation interval, the ratio of
// aggregate CPU demand (RPE2, per-server interval peaks summed) to
// aggregate memory demand (GB), the quantity Figure 6 compares against the
// reference blade's capacity ratio of 160 RPE2/GB. Intervals where the
// aggregate ratio is below the blade ratio are memory-constrained.
func ResourceRatios(set *trace.Set, intervalHours int) ([]float64, error) {
	if intervalHours < 1 {
		return nil, errors.New("analysis: interval must be at least one hour")
	}
	if len(set.Servers) == 0 {
		return nil, errors.New("analysis: empty trace set")
	}
	var cpuTotals, memTotals []float64
	var cpuBuf, memBuf []float64
	for _, st := range set.Servers {
		cpu, err := st.Series.IntervalsInto(cpuBuf, intervalHours, trace.CPU, stats.Max)
		if err != nil {
			return nil, fmt.Errorf("server %s: %w", st.ID, err)
		}
		mem, err := st.Series.IntervalsInto(memBuf, intervalHours, trace.Mem, stats.Max)
		if err != nil {
			return nil, fmt.Errorf("server %s: %w", st.ID, err)
		}
		cpuBuf, memBuf = cpu, mem
		if cpuTotals == nil {
			cpuTotals = make([]float64, len(cpu))
			memTotals = make([]float64, len(mem))
		}
		for i := range cpu {
			cpuTotals[i] += cpu[i]
			memTotals[i] += mem[i]
		}
	}
	ratios := make([]float64, len(cpuTotals))
	for i := range cpuTotals {
		if memTotals[i] > 0 {
			ratios[i] = cpuTotals[i] / (memTotals[i] / 1024)
		}
	}
	return ratios, nil
}

// ResourceRatioCDF wraps ResourceRatios in an empirical CDF.
func ResourceRatioCDF(set *trace.Set, intervalHours int) (*stats.CDF, error) {
	ratios, err := ResourceRatios(set, intervalHours)
	if err != nil {
		return nil, err
	}
	return stats.NewCDF(ratios)
}

// MemoryBoundFraction returns the fraction of consolidation intervals in
// which the aggregate demand ratio falls below the reference blade ratio —
// the intervals where consolidation is constrained by memory
// (Observation 3).
func MemoryBoundFraction(set *trace.Set, intervalHours int, bladeRatio float64) (float64, error) {
	cdf, err := ResourceRatioCDF(set, intervalHours)
	if err != nil {
		return 0, err
	}
	return cdf.At(bladeRatio), nil
}

// MeanCPUUtilization returns the data-center-wide average CPU utilization:
// the mean over servers of each server's mean demand divided by its rating
// (the Table 2 "CPU Util" column).
func MeanCPUUtilization(set *trace.Set) (float64, error) {
	if len(set.Servers) == 0 {
		return 0, errors.New("analysis: empty trace set")
	}
	var total float64
	for _, st := range set.Servers {
		if st.Spec.CPURPE2 <= 0 {
			return 0, fmt.Errorf("analysis: server %s has no CPU rating", st.ID)
		}
		total += stats.Mean(st.Series.Col(trace.CPU)) / st.Spec.CPURPE2
	}
	return total / float64(len(set.Servers)), nil
}

// ServerBurstiness summarizes one server for the Figure 1 style report.
type ServerBurstiness struct {
	ID           trace.ServerID
	AvgUtil      float64 // mean CPU utilization (fraction of rating)
	PeakUtil     float64 // peak CPU utilization
	PeakToAvg    float64 // peak/average of hourly CPU demand
	CoV          float64 // coefficient of variability of CPU demand
	MemPeakToAvg float64
	MemCoV       float64
}

// Burstiness summarizes the named server.
func Burstiness(st *trace.ServerTrace) (ServerBurstiness, error) {
	if err := st.Validate(); err != nil {
		return ServerBurstiness{}, err
	}
	cpu := st.Series.Col(trace.CPU)
	mem := st.Series.Col(trace.Mem)
	return ServerBurstiness{
		ID:           st.ID,
		AvgUtil:      stats.Mean(cpu) / st.Spec.CPURPE2,
		PeakUtil:     stats.Max(cpu) / st.Spec.CPURPE2,
		PeakToAvg:    stats.PeakToAverage(cpu),
		CoV:          stats.CoV(cpu),
		MemPeakToAvg: stats.PeakToAverage(mem),
		MemCoV:       stats.CoV(mem),
	}, nil
}
