// Package traceio persists trace sets as CSV, in the same column layout
// `vmwild tracegen` emits:
//
//	server,app,class,cpu_rpe2_capacity,mem_mb_capacity,hour,cpu_rpe2,mem_mb
//
// This is the bridge for users with real monitoring exports: dump the
// warehouse (or any external tool) into this layout and every planner and
// experiment in the library runs on it unchanged.
package traceio

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"vmwild/internal/trace"
)

// Header is the canonical CSV column set.
var Header = []string{
	"server", "app", "class", "cpu_rpe2_capacity", "mem_mb_capacity",
	"hour", "cpu_rpe2", "mem_mb",
}

// Write emits the trace set as CSV, one row per (server, hour).
func Write(w io.Writer, set *trace.Set) error {
	if err := set.Validate(); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write(Header); err != nil {
		return fmt.Errorf("traceio: write header: %w", err)
	}
	for _, st := range set.Servers {
		base := []string{
			string(st.ID),
			st.App,
			st.Class,
			strconv.FormatFloat(st.Spec.CPURPE2, 'f', -1, 64),
			strconv.FormatFloat(st.Spec.MemMB, 'f', -1, 64),
		}
		for h, u := range st.Series.Samples {
			row := append(append(make([]string, 0, len(Header)), base...),
				strconv.Itoa(h),
				strconv.FormatFloat(u.CPU, 'f', 3, 64),
				strconv.FormatFloat(u.Mem, 'f', 3, 64),
			)
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("traceio: write row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// serverAccum collects one server's rows during a read.
type serverAccum struct {
	spec   trace.Spec
	app    string
	class  string
	byHour map[int]trace.Usage
	maxHr  int
}

// Read parses a CSV in the canonical layout into a trace set named name.
// Rows may arrive in any order; every server must cover the same hour range
// starting at 0 with no gaps.
func Read(r io.Reader, name string) (*trace.Set, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(Header)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("traceio: read header: %w", err)
	}
	for i, col := range Header {
		if header[i] != col {
			return nil, fmt.Errorf("traceio: header column %d is %q, want %q", i, header[i], col)
		}
	}

	accums := make(map[trace.ServerID]*serverAccum)
	var order []trace.ServerID
	for line := 2; ; line++ {
		row, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("traceio: line %d: %w", line, err)
		}
		id := trace.ServerID(row[0])
		if id == "" {
			return nil, fmt.Errorf("traceio: line %d: empty server id", line)
		}
		acc := accums[id]
		if acc == nil {
			cpuCap, err := parseFloat(row[3], "cpu_rpe2_capacity", line)
			if err != nil {
				return nil, err
			}
			memCap, err := parseFloat(row[4], "mem_mb_capacity", line)
			if err != nil {
				return nil, err
			}
			acc = &serverAccum{
				spec:   trace.Spec{CPURPE2: cpuCap, MemMB: memCap},
				app:    row[1],
				class:  row[2],
				byHour: make(map[int]trace.Usage),
			}
			accums[id] = acc
			order = append(order, id)
		}
		hour, err := strconv.Atoi(row[5])
		if err != nil || hour < 0 {
			return nil, fmt.Errorf("traceio: line %d: bad hour %q", line, row[5])
		}
		cpu, err := parseFloat(row[6], "cpu_rpe2", line)
		if err != nil {
			return nil, err
		}
		mem, err := parseFloat(row[7], "mem_mb", line)
		if err != nil {
			return nil, err
		}
		if _, dup := acc.byHour[hour]; dup {
			return nil, fmt.Errorf("traceio: line %d: duplicate hour %d for server %s", line, hour, id)
		}
		acc.byHour[hour] = trace.Usage{CPU: cpu, Mem: mem}
		if hour > acc.maxHr {
			acc.maxHr = hour
		}
	}
	if len(accums) == 0 {
		return nil, errors.New("traceio: no data rows")
	}

	set := &trace.Set{Name: name}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, id := range order {
		acc := accums[id]
		samples := make([]trace.Usage, acc.maxHr+1)
		for h := range samples {
			u, ok := acc.byHour[h]
			if !ok {
				return nil, fmt.Errorf("traceio: server %s is missing hour %d", id, h)
			}
			samples[h] = u
		}
		series, err := trace.NewSeries(time.Hour, samples)
		if err != nil {
			return nil, err
		}
		set.Servers = append(set.Servers, &trace.ServerTrace{
			ID:     id,
			Spec:   acc.spec,
			App:    acc.app,
			Class:  acc.class,
			Series: series,
		})
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	return set, nil
}

func parseFloat(s, col string, line int) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("traceio: line %d: bad %s %q", line, col, s)
	}
	if v < 0 {
		return 0, fmt.Errorf("traceio: line %d: negative %s", line, col)
	}
	return v, nil
}
