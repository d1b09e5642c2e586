package conformance

import (
	"fmt"

	"blockpar/internal/cluster"
	"blockpar/internal/core"
	"blockpar/internal/frame"
	"blockpar/internal/machine"
	"blockpar/internal/serve"
)

// checkCluster streams the case through the full distributed path — a
// dispatcher, the TCP wire codec, and a loopback worker session — and
// compares every frame with the oracle. The exact compiled variant
// under test is registered directly (AddCompiled), so the worker
// executes the same transformed graph the other backends diffed; the
// wire round trip must not perturb a single bit.
func checkCluster(compiled *core.Compiled, sources map[string]frame.Generator,
	want []map[string][]frame.Window) error {

	reg := serve.NewRegistry(machine.Embedded())
	p, err := reg.AddCompiled("case", "case", compiled, sources)
	if err != nil {
		return err
	}
	w := cluster.NewWorker(reg, cluster.WorkerOptions{Name: "conformance"})
	d, stop, err := cluster.Loopback(w, cluster.DispatcherOptions{})
	if err != nil {
		return err
	}
	defer stop()

	return streamConformance(d, p, compiled, serve.OpenOptions{MaxInFlight: len(want)}, want)
}

// checkRegistered streams the case through a self-registered fleet:
// two frontends, each with its own registration listener and
// ring-following dispatcher, sharing three workers that dialed in and
// registered themselves — the bpserve -registry / bpworker -join
// topology. Both frontends must agree on keyed placement without
// talking to each other, and the stream through either must match the
// oracle bit for bit. With partitions > 1 every session is additionally
// split that many ways across the registered workers — the partitioned
// backend's cut-edge relay over the registered backend's membership.
func checkRegistered(compiled *core.Compiled, sources map[string]frame.Generator,
	want []map[string][]frame.Window, partitions int) error {

	c, err := cluster.StartRegisteredCluster(2, 3, cluster.RegisteredClusterConfig{
		Dispatcher: cluster.DispatcherOptions{Partitions: partitions},
		MakeWorker: func(i int) *cluster.Worker {
			reg := serve.NewRegistry(machine.Embedded())
			// Each worker registers the same compiled template; sessions
			// clone it, so sharing across registries is safe.
			if _, err := reg.AddCompiled("case", "case", compiled, sources); err != nil {
				panic(err)
			}
			return cluster.NewWorker(reg, cluster.WorkerOptions{Name: fmt.Sprintf("reg-w%d", i)})
		},
	})
	if err != nil {
		return err
	}
	defer c.Close()

	// Placement agreement is the point of the ring: frontends that have
	// never exchanged a byte must rank the fleet identically.
	const key = "case"
	a, b := c.Dispatchers[0].PlacementFor(key), c.Dispatchers[1].PlacementFor(key)
	if len(a) != len(b) {
		return fmt.Errorf("registered: frontends see %d vs %d ring members", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("registered: frontends disagree on placement: %v vs %v", a, b)
		}
	}

	reg := serve.NewRegistry(machine.Embedded())
	p, err := reg.AddCompiled("case", "case", compiled, sources)
	if err != nil {
		return err
	}
	for fe, d := range c.Dispatchers {
		if err := streamConformance(d, p, compiled, serve.OpenOptions{MaxInFlight: len(want), Key: key}, want); err != nil {
			return fmt.Errorf("frontend %d: %w", fe, err)
		}
	}
	return nil
}

// streamConformance feeds every frame through one session on d and
// compares each collected frame with the oracle golden.
func streamConformance(d *cluster.Dispatcher, p *serve.Pipeline, compiled *core.Compiled,
	opts serve.OpenOptions, want []map[string][]frame.Window) error {

	h, err := d.Open(p, opts)
	if err != nil {
		return err
	}
	defer h.Close()
	for f := range want {
		if _, err := h.TryFeed(nil); err != nil {
			return fmt.Errorf("feed %d: %w", f, err)
		}
	}
	outputs := compiled.Graph.Outputs()
	for f := range want {
		res, err := h.Collect(execTimeout)
		if err != nil {
			return fmt.Errorf("collect %d: %w", f, err)
		}
		if res.Seq != int64(f) {
			return fmt.Errorf("collected frame %d, want %d", res.Seq, f)
		}
		cmpErr := func() error {
			for _, out := range outputs {
				name := out.Name()
				if err := compareWindows(res.Outputs[name], want[f][name]); err != nil {
					return fmt.Errorf("output %q frame %d: %w", name, f, err)
				}
			}
			return nil
		}()
		for _, ws := range res.Outputs {
			for _, w := range ws {
				w.Release()
			}
		}
		if cmpErr != nil {
			return cmpErr
		}
	}
	if err := h.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return nil
}

// checkPartitioned streams the case through partitioned sessions: the
// compiled graph is split by the placement layer across a 2-worker and
// then a 3-worker fleet, with cut-edge traffic relayed through the
// dispatcher, and every frame must still match the oracle bit for bit.
// Small cases whose placement collapses run as fewer partitions, down
// to one — that degradation is part of the contract and stays under
// test.
func checkPartitioned(compiled *core.Compiled, sources map[string]frame.Generator,
	want []map[string][]frame.Window) error {

	for _, workers := range []int{2, 3} {
		if err := checkPartitionedFleet(compiled, sources, want, workers); err != nil {
			return fmt.Errorf("%d workers: %w", workers, err)
		}
	}
	return nil
}

func checkPartitionedFleet(compiled *core.Compiled, sources map[string]frame.Generator,
	want []map[string][]frame.Window, workers int) error {

	d, _, stop, err := cluster.LoopbackFleet(workers, cluster.DispatcherOptions{Partitions: workers},
		func(i int) *cluster.Worker {
			reg := serve.NewRegistry(machine.Embedded())
			// Each worker registers the same compiled template; sessions
			// clone it, so sharing across registries is safe.
			if _, err := reg.AddCompiled("case", "case", compiled, sources); err != nil {
				panic(err)
			}
			return cluster.NewWorker(reg, cluster.WorkerOptions{Name: fmt.Sprintf("conformance%d", i)})
		})
	if err != nil {
		return err
	}
	defer stop()

	reg := serve.NewRegistry(machine.Embedded())
	p, err := reg.AddCompiled("case", "case", compiled, sources)
	if err != nil {
		return err
	}
	return streamConformance(d, p, compiled, serve.OpenOptions{MaxInFlight: len(want)}, want)
}
