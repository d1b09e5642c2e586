package conformance

import (
	"fmt"
	"time"

	"blockpar/internal/core"
	"blockpar/internal/frame"
	"blockpar/internal/graph"
	"blockpar/internal/machine"
	"blockpar/internal/mapping"
	"blockpar/internal/runtime"
	"blockpar/internal/sim"
	"blockpar/internal/token"
	"blockpar/internal/transform"
)

// Variant is one compilation configuration the differential driver
// exercises: a PE budget (machine) and the buffer-striping choice.
type Variant struct {
	Name     string
	Machine  machine.Machine
	Striping bool
}

// Variants returns the default compilation matrix: three PE budgets
// (generous, paper-calibrated, deliberately starved) plus the shared
// round-robin buffer ablation.
func Variants() []Variant {
	return []Variant{
		{Name: "embedded", Machine: machine.Embedded(), Striping: true},
		{Name: "small", Machine: machine.Small(), Striping: true},
		{Name: "default", Machine: machine.Default(), Striping: true},
		{Name: "embedded-rr", Machine: machine.Embedded(), Striping: false},
	}
}

// CheckOptions configures one differential run.
type CheckOptions struct {
	// Frames per execution (default 2, so cross-frame kernel state and
	// end-of-frame boundaries are exercised).
	Frames int
	// Variants defaults to Variants().
	Variants []Variant
	// Backends selects the execution paths to diff against the oracle,
	// from Backends (below). Empty means every per-PR backend —
	// "cluster" spins a TCP loopback worker per variant, so it is
	// reserved for the nightly sweep and explicit opt-in.
	Backends []string
}

// Backends lists every execution path the differential driver can
// exercise: the batch runtime, a streaming session, the timing
// simulator's functional stream, a cluster session over a loopback
// worker, a partitioned session split by the placement layer across a
// loopback fleet, and a self-registered two-frontend fleet placed by the
// consistent-hash ring.
func Backends() []string {
	return []string{"batch", "session", "sim", "cluster", "partitioned", "registered"}
}

// DefaultBackends is the per-PR subset: the in-process paths.
func DefaultBackends() []string {
	return []string{"batch", "session", "sim"}
}

func backendSet(names []string) (map[string]bool, error) {
	if len(names) == 0 {
		names = DefaultBackends()
	}
	all := make(map[string]bool, len(Backends()))
	for _, b := range Backends() {
		all[b] = true
	}
	set := make(map[string]bool, len(names))
	for _, b := range names {
		if !all[b] {
			return nil, fmt.Errorf("unknown conformance backend %q (have %v)", b, Backends())
		}
		set[b] = true
	}
	return set, nil
}

const execTimeout = 30 * time.Second

// Check runs one generated case through every execution path and
// every compilation variant, failing on the first divergence from the
// sequential oracle or any violated compiler invariant.
func Check(c *Case, opts CheckOptions) error {
	frames := opts.Frames
	if frames <= 0 {
		frames = 2
	}
	variants := opts.Variants
	if variants == nil {
		variants = Variants()
	}
	backends, err := backendSet(opts.Backends)
	if err != nil {
		return err
	}

	want, err := OracleFrames(c, frames)
	if err != nil {
		return err
	}

	for _, v := range variants {
		compiled, err := compileVariant(c, v)
		if err != nil {
			return err
		}
		if err := CheckInvariants(compiled); err != nil {
			return fmt.Errorf("%s: %w", v.Name, err)
		}
		// The sim cross-check consumes the batch run's stream, so "sim"
		// implies executing (but not re-judging) the batch backend.
		var res *runtime.Result
		if backends["batch"] || backends["sim"] {
			res, err = checkBatch(compiled.Graph, c.Sources, want)
			if err != nil {
				return fmt.Errorf("%s: %w", v.Name, err)
			}
		}
		if backends["batch"] {
			if err := checkCounters(compiled, res.Stats, frames); err != nil {
				return fmt.Errorf("%s: %w", v.Name, err)
			}
		}
		if backends["session"] {
			if err := checkSession(compiled, c.Sources, want); err != nil {
				return fmt.Errorf("%s: %w", v.Name, err)
			}
		}
		if backends["sim"] {
			if err := checkSim(compiled.Graph, v.Machine, frames, res); err != nil {
				return fmt.Errorf("%s: %w", v.Name, err)
			}
		}
		if backends["cluster"] {
			if err := checkCluster(compiled, c.Sources, want); err != nil {
				return fmt.Errorf("%s: cluster: %w", v.Name, err)
			}
		}
		if backends["partitioned"] {
			if err := checkPartitioned(compiled, c.Sources, want); err != nil {
				return fmt.Errorf("%s: partitioned: %w", v.Name, err)
			}
		}
		if backends["registered"] {
			if err := checkRegistered(compiled, c.Sources, want, 0); err != nil {
				return fmt.Errorf("%s: registered: %w", v.Name, err)
			}
		}
	}
	return nil
}

// OracleFrames computes the reference per-frame outputs for a case.
func OracleFrames(c *Case, frames int) ([]map[string][]frame.Window, error) {
	oracle, err := NewOracle(c.Graph, c.Sources)
	if err != nil {
		return nil, err
	}
	want := make([]map[string][]frame.Window, frames)
	for f := 0; f < frames; f++ {
		w, err := oracle.Frame(int64(f))
		if err != nil {
			return nil, err
		}
		want[f] = w
	}
	return want, nil
}

func compileVariant(c *Case, v Variant) (*core.Compiled, error) {
	g := c.Graph.Clone()
	compiled, err := core.Compile(g, core.Config{
		Machine:        v.Machine,
		Align:          transform.Trim,
		Parallelize:    true,
		BufferStriping: v.Striping,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", v.Name, err)
	}
	return compiled, nil
}

// checkBatch runs the compiled graph through the batch runtime and
// compares every frame of every output byte-for-byte with the oracle. The template graph is cloned first:
// behaviors are stateful, so a compiled graph is an execution
// template, never run directly.
func checkBatch(template *graph.Graph, sources map[string]frame.Generator,
	want []map[string][]frame.Window) (*runtime.Result, error) {

	g := template.Clone()
	res, err := runtime.Run(g, runtime.Options{
		Frames: len(want), Sources: sources, Timeout: execTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	for _, out := range g.Outputs() {
		name := out.Name()
		slices := res.FrameSlices(name)
		if len(slices) != len(want) {
			return nil, fmt.Errorf("runtime: output %q completed %d frames, want %d", name, len(slices), len(want))
		}
		for f, got := range slices {
			if err := compareWindows(got, want[f][name]); err != nil {
				return nil, fmt.Errorf("runtime: output %q frame %d: %w", name, f, err)
			}
		}
	}
	return res, nil
}

// checkSession streams the same frames through a resident
// runtime.Session and compares the per-frame results, then holds the
// session's live counters (Session.Stats) to the same bar as a batch
// run's.
func checkSession(compiled *core.Compiled, sources map[string]frame.Generator,
	want []map[string][]frame.Window) error {

	g := compiled.Graph.Clone()
	sess, err := runtime.NewSession(g, runtime.SessionOptions{
		Sources: sources, MaxInFlight: len(want),
	})
	if err != nil {
		return fmt.Errorf("session: %w", err)
	}
	defer sess.Close()
	for f := range want {
		if _, err := sess.Feed(nil); err != nil {
			return fmt.Errorf("session: feed %d: %w", f, err)
		}
	}
	for f := range want {
		res, err := sess.Collect(execTimeout)
		if err != nil {
			return fmt.Errorf("session: collect %d: %w", f, err)
		}
		if res.Seq != int64(f) {
			return fmt.Errorf("session: collected frame %d, want %d", res.Seq, f)
		}
		for _, out := range g.Outputs() {
			name := out.Name()
			if err := compareWindows(res.Outputs[name], want[f][name]); err != nil {
				return fmt.Errorf("session: output %q frame %d: %w", name, f, err)
			}
		}
	}
	if err := sess.Close(); err != nil {
		return fmt.Errorf("session: close: %w", err)
	}
	if err := checkCounters(compiled, sess.Stats(), len(want)); err != nil {
		return fmt.Errorf("session: %w", err)
	}
	return nil
}

// checkSim cross-checks the value-free timing simulation's functional
// output (item/EOL/EOF tallies per output) against the batch runtime's
// actual stream, so the two engines' firing rules cannot drift apart.
func checkSim(template *graph.Graph, m machine.Machine, frames int, run *runtime.Result) error {
	g := template.Clone()
	simRes, err := sim.Simulate(g, mapping.OneToOne(g), sim.Options{
		Machine: m, Frames: frames,
	})
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	for _, out := range g.Outputs() {
		name := out.Name()
		var rt sim.OutputCount
		for _, it := range run.Outputs[name] {
			switch {
			case !it.IsToken:
				rt.Data++
			case it.Tok.Kind == token.EndOfLine:
				rt.EOL++
			case it.Tok.Kind == token.EndOfFrame:
				rt.EOF++
			}
		}
		if sm := simRes.OutputCounts[name]; sm != rt {
			return fmt.Errorf("sim: output %q stream structure %+v, runtime %+v", name, sm, rt)
		}
	}
	return nil
}

// checkCounters holds a run's per-node counter blocks to the compiler's
// numbers. Firing counts must equal the analysis' predicted iteration
// grids — the §III-A numbers every buffer size and parallel degree is
// derived from — for ordinary kernels and for FSM kernels alike, whose
// one method counts the data items it took (nodes fed by round-robin
// flattened streams are skipped: their per-instance share is modeled
// as a flat total, not a grid). And no input ring may have held more than the capacity the
// execution plan derived for it from the same analysis: a higher mark
// means the ring grew, i.e. the plan-time bound was wrong for this
// graph.
func checkCounters(compiled *core.Compiled, stats []runtime.NodeStats, frames int) error {
	fired := make(map[string]map[string]int64, len(stats))
	for _, st := range stats {
		fired[st.Node] = st.Firings
		for _, r := range st.Rings {
			if r.HighWater > r.Capacity {
				return fmt.Errorf("rings: %q.%s held %d items, planned capacity %d",
					st.Node, r.Input, r.HighWater, r.Capacity)
			}
		}
	}
	for _, n := range compiled.Graph.Nodes() {
		if len(n.Methods()) == 0 {
			continue // inputs and outputs
		}
		flat := false
		for _, p := range n.Inputs() {
			if compiled.Analysis.In[p].Flat {
				flat = true
			}
		}
		if flat {
			continue
		}
		ni := compiled.Analysis.NodeInfoOf(n)
		for _, m := range n.Methods() {
			mi, ok := ni.Methods[m.Name]
			if !ok {
				continue
			}
			wantN := mi.Invocations() * int64(frames)
			gotN := fired[n.Name()][m.Name]
			if gotN != wantN {
				return fmt.Errorf("firings: %q.%s fired %d times over %d frames, analysis predicts %d",
					n.Name(), m.Name, gotN, frames, wantN)
			}
		}
	}
	return nil
}

func compareWindows(got, want []frame.Window) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d windows, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("window %d differs: got %v want %v", i, got[i], want[i])
		}
	}
	return nil
}
