// Command bpsim compiles a benchmark application, maps it to PEs, and
// runs the timing simulation, reporting throughput, real-time status,
// and per-PE utilization broken into run/read/write time.
//
// Usage:
//
//	bpsim -app SF -mapping greedy -frames 4
//	bpsim -app 3 -mapping 1:1 -per-pe
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/core"
	"blockpar/internal/frame"
	"blockpar/internal/graph"
	"blockpar/internal/machine"
	"blockpar/internal/mapping"
	"blockpar/internal/runtime"
	"blockpar/internal/sim"
)

func main() {
	appID := flag.String("app", "5", "benchmark id: "+strings.Join(apps.IDs(), ", "))
	mapKind := flag.String("mapping", "greedy", "kernel-to-PE mapping: 1:1, greedy")
	frames := flag.Int("frames", 2, "input frames to simulate")
	perPE := flag.Bool("per-pe", false, "print per-PE utilization")
	place := flag.Bool("place", false, "run simulated-annealing placement and report comm cost")
	dot := flag.Bool("dot", false, "emit the Figure 12-style clustered DOT instead of simulating")
	traceFile := flag.String("trace", "", "write a CSV firing trace to this file")
	traceJSON := flag.String("trace-json", "", "write a Chrome trace_event JSON firing trace to this file (chrome://tracing, Perfetto)")
	gantt := flag.Bool("gantt", false, "print an ASCII Gantt chart of PE occupancy")
	runFn := flag.Bool("run", false, "execute functionally on the runtime and report wall time, samples/s, and pool stats instead of simulating")
	flag.Parse()

	if *runFn {
		if err := runFunctional(*appID, *frames); err != nil {
			fmt.Fprintln(os.Stderr, "bpsim:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*appID, *mapKind, *frames, *perPE, *place, *dot, *traceFile, *traceJSON, *gantt); err != nil {
		fmt.Fprintln(os.Stderr, "bpsim:", err)
		os.Exit(1)
	}
}

// runFunctional executes the compiled app on the functional runtime and
// reports throughput plus window-arena statistics — the quickest way to
// observe the data plane's pool behavior on a real workload.
func runFunctional(appID string, frames int) error {
	app, err := apps.ByID(appID)
	if err != nil {
		return err
	}
	m := machine.Embedded()
	c, err := core.Compile(app.Graph, core.Config{
		Machine: m, Parallelize: true, BufferStriping: true,
	})
	if err != nil {
		return err
	}
	var samples int64
	for _, n := range c.Graph.Nodes() {
		if n.Kind == graph.KindInput {
			samples += int64(n.FrameSize.W) * int64(n.FrameSize.H) * int64(frames)
		}
	}
	frame.ResetStats()
	start := time.Now()
	res, err := runtime.Run(c.Graph, runtime.Options{Frames: frames, Sources: app.Sources})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	var items int
	for _, s := range res.Outputs {
		items += len(s)
	}
	ps := frame.Stats()
	fmt.Printf("app %s, functional runtime\n", app.Name)
	fmt.Printf("  wall:      %.3f ms for %d frames\n", float64(wall)/float64(time.Millisecond), frames)
	fmt.Printf("  samples/s: %.3g (%d input samples)\n", float64(samples)/wall.Seconds(), samples)
	fmt.Printf("  outputs:   %d stream items\n", items)
	fmt.Printf("  pool:      %d gets, %.1f%% hit rate, %d live, %d bytes parked\n",
		ps.Gets, 100*ps.HitRate(), ps.Live, ps.PooledBytes)
	fmt.Printf("  nodes:     deliveries, ring high-water/capacity per input, firings per method\n")
	for _, st := range res.Stats {
		if len(st.Rings) == 0 {
			continue // application inputs receive nothing
		}
		fmt.Printf("    %-32s %8d ", st.Node, st.Deliveries)
		for _, r := range st.Rings {
			fmt.Printf(" %s %d/%d", r.Input, r.HighWater, r.Capacity)
		}
		methods := make([]string, 0, len(st.Firings))
		for m := range st.Firings {
			methods = append(methods, m)
		}
		sort.Strings(methods)
		for _, m := range methods {
			fmt.Printf("  %s×%d", m, st.Firings[m])
		}
		fmt.Println()
	}
	return nil
}

func run(appID, mapKind string, frames int, perPE, place, dot bool, traceFile, traceJSON string, gantt bool) error {
	app, err := apps.ByID(appID)
	if err != nil {
		return err
	}
	m := machine.Embedded()
	c, err := core.Compile(app.Graph, core.Config{
		Machine: m, Parallelize: true, BufferStriping: true,
	})
	if err != nil {
		return err
	}

	var assign *mapping.Assignment
	switch mapKind {
	case "1:1", "one-to-one":
		assign = mapping.OneToOne(c.Graph)
	case "greedy", "gm":
		assign, err = mapping.Greedy(c.Graph, c.Analysis, m)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mapping %q", mapKind)
	}

	if dot {
		fmt.Print(mapping.Dot(c.Graph, assign))
		return nil
	}

	opts := sim.Options{Machine: m, Frames: frames}
	if traceFile != "" || traceJSON != "" || gantt {
		opts.TraceLimit = 1 << 20
	}
	res, err := sim.Simulate(c.Graph, assign, opts)
	if err != nil {
		return err
	}

	rt := "met"
	if !res.RealTimeMet() {
		rt = fmt.Sprintf("MISSED (%d stalls, %.3g s late)", res.InputStalls, res.StallTime)
	}
	run, read, write := res.Breakdown()
	fmt.Printf("app %s on %s, %s mapping\n", app.Name, m.Name, mapKind)
	fmt.Printf("  PEs:         %d\n", assign.NumPEs)
	fmt.Printf("  makespan:    %.6f s for %d frames (%.1f frames/s)\n", res.Time, frames, res.Throughput)
	fmt.Printf("  real-time:   %s\n", rt)
	fmt.Printf("  utilization: %.1f%% mean (run %.1f%% + read %.1f%% + write %.1f%%)\n",
		100*res.MeanUtilization(), 100*run, 100*read, 100*write)
	fmt.Printf("  latency:     %.6f s worst frame\n", res.MaxLatency())
	if n := res.TotalExceptions(); n > 0 {
		fmt.Printf("  exceptions:  %d dynamic-kernel bound violations\n", n)
	}

	if perPE {
		fmt.Println("  per-PE:")
		for i, pe := range res.PEs {
			names := []string{}
			for _, n := range assign.NodesOn(c.Graph, i) {
				names = append(names, n.Name())
			}
			fmt.Printf("    PE%-3d %5.1f%%  %s\n", i, 100*pe.Busy()/res.Time, strings.Join(names, " + "))
		}
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Trace.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("  trace:       %d firings written to %s\n", len(res.Trace.Events), traceFile)
	}
	if traceJSON != "" {
		f, err := os.Create(traceJSON)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Trace.WriteTraceJSON(f); err != nil {
			return err
		}
		fmt.Printf("  trace-json:  %d firings written to %s\n", len(res.Trace.Events), traceJSON)
	}
	if res.Trace != nil && res.Trace.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "bpsim: warning: firing trace truncated, %d events dropped beyond the %d-event limit\n",
			res.Trace.Dropped, opts.TraceLimit)
	}
	if gantt {
		fmt.Println("  PE occupancy (time left to right):")
		fmt.Print(indent(res.Trace.Gantt(assign.NumPEs, res.Time, 72), "    "))
	}
	if place {
		p := mapping.Anneal(c.Graph, assign, 42)
		em := mapping.DefaultEnergy()
		fmt.Printf("  placement:   %dx%d grid, comm cost %.0f word-hops/frame-set\n",
			p.GridW, p.GridH, mapping.CommCost(c.Graph, assign, p))
		fmt.Printf("  energy:      %.0f units/frame (placed), model %v\n",
			mapping.EnergyPerFrame(c.Graph, c.Analysis, m, assign, p, em), em)
	}
	return nil
}

// indent prefixes every line of s.
func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
