// Monitoring: run the paper's monitoring pipeline end to end — per-server
// agents collect the Table 1 metric set every (simulated) minute and stream
// it over TCP to the central warehouse, which aggregates hourly averages
// that feed consolidation planning.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"vmwild"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A small fleet with two days of demand history to replay.
	profile := vmwild.NaturalResources()
	profile.Servers = 6
	fleet, err := vmwild.Generate(profile, 48, vmwild.DefaultSeed)
	if err != nil {
		return err
	}
	epoch := time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC) // the study began in June 2012

	// Central warehouse with a 30-day retention policy.
	warehouse := vmwild.NewWarehouse(30 * 24 * time.Hour)
	addr, err := warehouse.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer warehouse.Close()
	fmt.Printf("warehouse listening on %s\n", addr)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Each server's agent collects one sample per simulated minute and
	// ships them over the socket as acked binary frames (all at once
	// here; the streaming Agent in the library does the same each tick).
	const hoursToCollect = 24
	specs := make(map[vmwild.ServerID]vmwild.Spec)
	var ids []vmwild.ServerID
	for i, st := range fleet.Servers {
		specs[st.ID] = st.Spec
		ids = append(ids, st.ID)
		src, err := vmwild.NewTraceSource(st, epoch, int64(i))
		if err != nil {
			return err
		}
		sender := &vmwild.ReliableSender{Addr: addr, AgentID: string(st.ID)}
		for m := 0; m < hoursToCollect*60; m++ {
			s, err := src.Collect(epoch.Add(time.Duration(m) * time.Minute))
			if err != nil {
				return err
			}
			sender.Queue(s)
		}
		err = sender.Flush(ctx, 3)
		sender.Close()
		if err != nil {
			return err
		}
	}
	if err := warehouse.WaitForSamples(ctx, ids, hoursToCollect*60); err != nil {
		return err
	}
	stat := warehouse.Stats()
	fmt.Printf("warehouse ingested %d samples from %d servers (%d dropped)\n\n",
		stat.Samples, stat.Servers, stat.Dropped)

	// Planning pulls its data through the warehouse query protocol —
	// the same JSON-over-TCP path a remote planning tool would use.
	qs := vmwild.NewQueryServer(warehouse)
	qaddr, err := qs.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer qs.Close()
	client, err := vmwild.DialQuery(ctx, qaddr)
	if err != nil {
		return err
	}
	defer client.Close()
	collected, err := client.FetchSet(profile.Name, specs, epoch)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %12s %12s %12s\n", "server", "hours", "avg cpu", "avg mem MB")
	for _, st := range collected.Servers {
		var cpu, mem float64
		for _, u := range st.Series.Samples {
			cpu += u.CPU
			mem += u.Mem
		}
		n := float64(st.Series.Len())
		fmt.Printf("%-8s %12d %12.1f %12.0f\n", st.ID, st.Series.Len(), cpu/n, mem/n)
	}

	fmt.Println("\nthe aggregated set plugs straight into planning:")
	fmt.Printf("  servers: %d, step: hourly, ready for vmwild planners\n", len(collected.Servers))
	return nil
}
