// Package blockpar is a block-parallel programming system for
// real-time embedded streaming applications, reproducing Black-Schaffer
// & Dally, "Block-Parallel Programming for Real-time Embedded
// Applications" (ICPP 2010).
//
// Applications are graphs of computation kernels connected by data
// stream channels carrying two-dimensional data in scan-line order.
// Kernel inputs and outputs are parameterized by window size, step, and
// offset; kernels may have multiple methods triggered by data or by
// in-band control tokens (end-of-line, end-of-frame, custom); inputs
// carry hard real-time rates. The compiler analyzes the graph
// (iteration sizes and rates, insets), then automatically inserts
// buffers, aligns mismatched halos by trimming or padding, and
// parallelizes kernels with split/join/replicate kernels to meet the
// input rate on a target many-core machine — respecting data-dependency
// edges that bound the available parallelism.
//
// Two execution engines are provided: a goroutine-per-kernel functional
// runtime (Run) that executes the graph with real data, and a
// deterministic discrete-event timing simulator (Simulate) that
// verifies the mapped application meets its real-time constraints and
// reports per-PE utilization.
//
// A minimal end-to-end use:
//
//	app := blockpar.NewApp("edges")
//	in := app.AddInput("Input", blockpar.Sz(64, 48), blockpar.Sz(1, 1), blockpar.FInt(30))
//	conv := app.Add(blockpar.Convolution("5x5 Conv", 5))
//	coeff := app.AddInput("Coeff", blockpar.Sz(5, 5), blockpar.Sz(5, 5), blockpar.FInt(30))
//	out := app.AddOutput("Output", blockpar.Sz(1, 1))
//	app.Connect(in, "out", conv, "in")
//	app.Connect(coeff, "out", conv, "coeff")
//	app.Connect(conv, "out", out, "in")
//
//	compiled, err := blockpar.Compile(app, blockpar.DefaultConfig())
//	// ... run functionally or simulate; see examples/.
package blockpar

import (
	"blockpar/internal/analysis"
	"blockpar/internal/core"
	"blockpar/internal/desc"
	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/machine"
	"blockpar/internal/mapping"
	"blockpar/internal/runtime"
	"blockpar/internal/sim"
	"blockpar/internal/token"
	"blockpar/internal/transform"
)

// Graph model.
type (
	// Graph is a block-parallel application description.
	Graph = graph.Graph
	// Node is a kernel instance in the graph.
	Node = graph.Node
	// Port is a parameterized kernel input or output.
	Port = graph.Port
	// Method is a kernel computation method.
	Method = graph.Method
	// NodeKind classifies nodes (kernel, buffer, split, ...).
	NodeKind = graph.NodeKind
	// Behavior is a kernel's functional implementation.
	Behavior = graph.Behavior
	// ExecContext is passed to Invoker behaviors per method firing.
	ExecContext = graph.ExecContext
	// Item is one stream element (data window or control token).
	Item = graph.Item
)

// Node kinds.
const (
	KindKernel    = graph.KindKernel
	KindInput     = graph.KindInput
	KindOutput    = graph.KindOutput
	KindBuffer    = graph.KindBuffer
	KindSplit     = graph.KindSplit
	KindJoin      = graph.KindJoin
	KindReplicate = graph.KindReplicate
	KindInset     = graph.KindInset
	KindPad       = graph.KindPad
	KindFeedback  = graph.KindFeedback
)

// Geometry and rates.
type (
	// Size is a 2-D extent in samples.
	Size = geom.Size
	// Step is the per-iteration window advance.
	Step = geom.Step
	// Offset is an exact (possibly fractional) 2-D displacement.
	Offset = geom.Offset
	// Frac is an exact rational, used for offsets and rates.
	Frac = geom.Frac
)

// Sz builds a Size; St a Step; Off an integer Offset; F and FInt exact
// rationals (rates are frames per second: use F(samples, frameArea)
// for sample-rate-driven inputs).
var (
	Sz   = geom.Sz
	St   = geom.St
	Off  = geom.Off
	F    = geom.F
	FInt = geom.FInt
)

// Tokens.
type (
	// Token is an in-band control token.
	Token = token.Token
	// TokenKind classifies tokens.
	TokenKind = token.Kind
)

// Token kinds.
const (
	TokenNone       = token.None
	TokenEndOfLine  = token.EndOfLine
	TokenEndOfFrame = token.EndOfFrame
	TokenCustom     = token.Custom
)

// Frames and windows.
type (
	// Window is a dense 2-D block of samples, the unit a channel moves.
	Window = frame.Window
	// Generator produces deterministic input frames.
	Generator = frame.Generator
)

// NewApp creates an empty application graph.
func NewApp(name string) *Graph { return graph.New(name) }

// NewKernel creates a bare kernel node for custom kernels: declare its
// ports with CreateInput/CreateOutput, methods with RegisterMethod and
// the trigger/output registrations, and attach a Behavior.
func NewKernel(name string) *Node { return graph.NewNode(name, graph.KindKernel) }

// Machine model.
type (
	// Machine describes the target many-core processor.
	Machine = machine.Machine
	// PE describes one processing element.
	PE = machine.PE
)

// Machine presets.
var (
	// DefaultMachine is a 200 MHz, 4K-word reference PE array.
	DefaultMachine = machine.Default
	// EmbeddedMachine is the 20 MHz, 768-word PE array the paper-style
	// experiments run on.
	EmbeddedMachine = machine.Embedded
)

// Compilation.
type (
	// Config selects the compilation pipeline's options.
	Config = core.Config
	// Compiled is a compiled application.
	Compiled = core.Compiled
	// AlignPolicy picks trimming vs padding for halo misalignment.
	AlignPolicy = transform.AlignPolicy
	// Analysis is the data-flow analysis result.
	Analysis = analysis.Result
)

// Alignment policies.
const (
	// AlignTrim discards the excess border of the larger streams.
	AlignTrim = transform.Trim
	// AlignPad zero-pads the smaller kernels' inputs instead.
	AlignPad = transform.PadInputs
)

// DefaultConfig compiles like the paper: trim alignment, striped
// buffers, full parallelization on the embedded machine.
func DefaultConfig() Config { return core.DefaultConfig() }

// Compile runs analysis, buffering, alignment, and parallelization on
// the application graph (mutating it in place).
func Compile(g *Graph, cfg Config) (*Compiled, error) { return core.Compile(g, cfg) }

// Analyze runs only the data-flow analysis (§III).
func Analyze(g *Graph) (*Analysis, error) { return analysis.Analyze(g) }

// Functional execution.
type (
	// RunOptions configures a functional run.
	RunOptions = runtime.Options
	// RunResult holds the streams every application output received.
	RunResult = runtime.Result
)

// Run executes the graph functionally: one goroutine per kernel,
// bounded rings as stream FIFOs, control tokens in-band.
func Run(g *Graph, opts RunOptions) (*RunResult, error) { return runtime.Run(g, opts) }

// PoolStats is a snapshot of the frame arena's counters: allocations
// served, pool hits, windows live, and bytes parked in the pool.
type PoolStats = frame.PoolStats

// Data-plane diagnostics: PoolUsage snapshots the window arena's
// counters; SetPoison enables use-after-release NaN poisoning for
// debugging kernel ownership bugs.
var (
	PoolUsage = frame.Stats
	SetPoison = frame.SetPoison
)

// Mapping and timing simulation.
type (
	// Assignment maps kernels to processing elements.
	Assignment = mapping.Assignment
	// Placement positions PEs on a 2-D grid.
	Placement = mapping.Placement
	// SimOptions configures a timing simulation.
	SimOptions = sim.Options
	// SimResult reports makespan, throughput, stalls, and per-PE
	// utilization split into run/read/write time.
	SimResult = sim.Result
)

// MapOneToOne assigns every kernel its own PE (Figure 12(a)).
func MapOneToOne(g *Graph) *Assignment { return mapping.OneToOne(g) }

// MapGreedy time-multiplexes neighboring low-utilization kernels onto
// shared PEs (§V, Figure 12(b)).
func MapGreedy(g *Graph, r *Analysis, m Machine) (*Assignment, error) {
	return mapping.Greedy(g, r, m)
}

// Place runs the simulated-annealing grid placement.
func Place(g *Graph, a *Assignment, seed uint64) *Placement {
	return mapping.Anneal(g, a, seed)
}

// Simulate runs the deterministic discrete-event timing simulation of
// the mapped application.
func Simulate(g *Graph, a *Assignment, opts SimOptions) (*SimResult, error) {
	return sim.Simulate(g, a, opts)
}

// ParseApp builds an application graph from its JSON description (the
// language's textual form; see internal/desc for the schema).
func ParseApp(data []byte) (*Graph, error) { return desc.Parse(data) }

// EncodeApp renders a programmer-level graph (library kernels only,
// before compilation) back into its JSON description.
func EncodeApp(g *Graph) ([]byte, error) { return desc.Encode(g) }

// MappingDot renders the graph with kernels clustered by their PE
// assignment, the visual form of the paper's Figure 12.
func MappingDot(g *Graph, a *Assignment) string { return mapping.Dot(g, a) }

// EnergyModel prices PE cycles, inter-PE word-hops, and idle capacity
// (§IV-D's energy discussion).
type EnergyModel = mapping.EnergyModel

// DefaultEnergy returns the reference energy model.
func DefaultEnergy() EnergyModel { return mapping.DefaultEnergy() }

// EnergyPerFrame estimates the energy one frame costs under an
// assignment and optional placement.
func EnergyPerFrame(g *Graph, r *Analysis, m Machine, a *Assignment, p *Placement, em EnergyModel) float64 {
	return mapping.EnergyPerFrame(g, r, m, a, p, em)
}
