// Package graph defines the block-parallel application description
// (paper §II): a graph of computation kernels connected by data stream
// channels, with parameterized inputs/outputs, multiple methods per
// kernel triggered by data or control tokens, replicated inputs, and
// data-dependency edges that limit parallelism.
package graph

import (
	"fmt"

	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/token"
)

// Dir distinguishes input from output ports.
type Dir int

const (
	// In marks an input port.
	In Dir = iota
	// Out marks an output port.
	Out
)

func (d Dir) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// NodeKind classifies nodes. Regular kernels are written by the
// programmer; the remaining kinds are inserted by the compiler's
// automatic transformations and are ordinary kernels semantically — the
// kind exists so analyses, mappings, and tests can recognize them.
type NodeKind int

const (
	// KindKernel is a programmer-written computation kernel.
	KindKernel NodeKind = iota
	// KindInput is an application input (carries size and rate).
	KindInput
	// KindOutput is an application output sink.
	KindOutput
	// KindBuffer is a compiler-inserted 2-D circular buffer (§III-B).
	KindBuffer
	// KindSplit distributes data to parallelized kernel instances (§IV).
	KindSplit
	// KindJoin collects data from parallelized kernel instances (§IV).
	KindJoin
	// KindReplicate copies replicated inputs to every instance (§IV-A).
	KindReplicate
	// KindInset trims output halos for alignment (§III-C).
	KindInset
	// KindPad zero-pads streams for alignment (§III-C).
	KindPad
	// KindFeedback breaks feedback loops and provides initial values
	// (§III-D).
	KindFeedback
	// KindBoundary terminates a cut edge when a graph is partitioned
	// across workers: a boundary source (one output, no inputs) injects
	// the item stream arriving from the peer partition, and a boundary
	// sink (one input, no outputs) drains the stream headed to it. The
	// runtime runs both as endpoints over callbacks the transport
	// supplies.
	KindBoundary
)

var nodeKindNames = map[NodeKind]string{
	KindKernel:    "kernel",
	KindInput:     "input",
	KindOutput:    "output",
	KindBuffer:    "buffer",
	KindSplit:     "split",
	KindJoin:      "join",
	KindReplicate: "replicate",
	KindInset:     "inset",
	KindPad:       "pad",
	KindFeedback:  "feedback",
	KindBoundary:  "boundary",
}

func (k NodeKind) String() string {
	if s, ok := nodeKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// Port is a parameterized kernel input or output (paper §II-A): a
// window size, a step describing how far the window advances per
// iteration, and (for inputs) the offset from input data to the output
// it contributes to. Inputs may be replicated: under parallelization
// their data is copied to every instance instead of distributed.
type Port struct {
	node *Node

	Name string
	Dir  Dir
	Size geom.Size
	Step geom.Step
	// Offset is the input→output displacement (inputs only). It may be
	// fractional for downsampling kernels.
	Offset geom.Offset
	// Replicated marks inputs whose data is copied, not split, when the
	// kernel is parallelized (e.g. convolution coefficients).
	Replicated bool
	// Elem declares the element kind of the stream this port produces.
	// It is authoritative only on application inputs (KindInput "out"
	// ports), where the zero value means float64; everywhere else the
	// flowing kind is derived by propagation (analysis.ElemKinds) from
	// the inputs and each behavior's ElemTyped constraints.
	Elem frame.Kind
}

// Node returns the port's owning node.
func (p *Port) Node() *Node { return p.node }

// Words returns the channel words moved per item on this port, used for
// read/write cost accounting.
func (p *Port) Words() int64 { return int64(p.Size.Area()) }

func (p *Port) String() string {
	return fmt.Sprintf("%s.%s", p.node.Name(), p.Name)
}

// Trigger names one input a method needs, optionally gated on a control
// token kind instead of data.
type Trigger struct {
	Input string
	// Token is token.None for data-triggered methods.
	Token token.Kind
	// TokenName selects a specific custom token.
	TokenName string
}

// IsData reports whether the trigger fires on data (not a token).
func (t Trigger) IsData() bool { return t.Token == token.None }

// Method is a computation method of a kernel (paper §II-B): it fires
// when every trigger input has a matching item, consumes those items,
// runs for Cycles, and may emit on its registered outputs. Methods of a
// kernel share the kernel's private state.
type Method struct {
	Name string
	// Cycles is the compute cost per invocation. For dynamic methods
	// (Bound > 0) it is the typical cost; the actual per-invocation
	// cost comes from the node's cost model.
	Cycles int64
	// Bound, when positive, marks the method dynamic: its per-
	// invocation cost varies at runtime, and Bound is the worst-case
	// allocation the compiler budgets for (the §VII extension for
	// kernels like motion-vector search). An invocation that would
	// exceed Bound is truncated and raises a runtime resource
	// exception in the simulator.
	Bound int64
	// Memory is the private state in words this method requires.
	Memory   int64
	Triggers []Trigger
	// Outputs are the ports the method emits one data item on per
	// firing (plus any consumed control tokens, in order).
	Outputs []string
	// ForwardOnly are ports that receive the consumed control tokens
	// but no data — for token-triggered methods that update state
	// without emitting, yet must keep downstream framing intact (e.g.
	// a reference-frame rollover on end-of-frame).
	ForwardOnly []string
}

// AllocCycles returns the cycles the compiler allocates per
// invocation: the declared bound for dynamic methods, the fixed cost
// otherwise.
func (m *Method) AllocCycles() int64 {
	if m.Bound > 0 {
		return m.Bound
	}
	return m.Cycles
}

// Dynamic reports whether the method's cost varies at runtime.
func (m *Method) Dynamic() bool { return m.Bound > 0 }

// CostModel returns a dynamic method's actual compute cycles for its
// n-th invocation (counted from zero within the stream). Models must be
// deterministic so simulations are reproducible.
type CostModel func(invocation int64) int64

// DataTriggers returns the subset of triggers that fire on data.
func (m *Method) DataTriggers() []Trigger {
	var out []Trigger
	for _, t := range m.Triggers {
		if t.IsData() {
			out = append(out, t)
		}
	}
	return out
}

// TriggersInput reports whether the method is triggered by the named
// input (with any token kind).
func (m *Method) TriggersInput(name string) bool {
	for _, t := range m.Triggers {
		if t.Input == name {
			return true
		}
	}
	return false
}

// Node is a kernel instance in the application graph.
type Node struct {
	name string
	// Base is the original kernel name before parallelization cloning
	// ("5x5 Conv" for instance "5x5 Conv_2").
	Base string
	// Instance is the parallel instance index (0 for unreplicated).
	Instance int
	Kind     NodeKind

	inputs              []*Port
	outputs             []*Port
	inByName, outByName map[string]*Port

	methods       []*Method
	methodsByName map[string]*Method

	// Behavior is the functional implementation used by the runtime
	// and, for FSM kernels, consulted by transform tests. It may be nil
	// for analysis-only graphs.
	Behavior Behavior

	// FrameSize and Rate describe application inputs (KindInput): the
	// per-frame data extent and the hard real-time frame rate.
	FrameSize geom.Size
	Rate      geom.Frac

	// TokenRates bounds custom-token emission: tokens per frame by
	// token name (paper §II-C requires kernels to declare the maximum
	// rate of the control tokens they generate).
	TokenRates map[string]geom.Frac

	// Costs supplies the actual per-invocation cycles of dynamic
	// methods (those with Bound > 0), keyed by method name. Models
	// must be deterministic; the simulator truncates invocations at
	// the method's Bound and records a resource exception.
	Costs map[string]CostModel

	// NoMultiplex excludes the node from greedy time-multiplexing; the
	// compiler sets it on initial input buffers (paper Figure 12: "the
	// initial input buffers are not multiplexed because they may block
	// the input").
	NoMultiplex bool

	// Attrs carries free-form annotations used by reports and DOT.
	Attrs map[string]string
}

// NewNode creates a node of the given kind.
func NewNode(name string, kind NodeKind) *Node {
	return &Node{
		name:          name,
		Base:          name,
		Kind:          kind,
		inByName:      make(map[string]*Port),
		outByName:     make(map[string]*Port),
		methodsByName: make(map[string]*Method),
		Attrs:         make(map[string]string),
	}
}

// Name returns the node's unique name within its graph.
func (n *Node) Name() string { return n.name }

// SetName renames the node (used by the parallelizer for instances).
func (n *Node) SetName(name string) { n.name = name }

// CreateInput declares a parameterized input port.
func (n *Node) CreateInput(name string, size geom.Size, step geom.Step, off geom.Offset) *Port {
	if _, dup := n.inByName[name]; dup {
		panic(fmt.Sprintf("graph: duplicate input %q on %q", name, n.name))
	}
	p := &Port{node: n, Name: name, Dir: In, Size: size, Step: step, Offset: off}
	n.inputs = append(n.inputs, p)
	n.inByName[name] = p
	return p
}

// CreateOutput declares a parameterized output port.
func (n *Node) CreateOutput(name string, size geom.Size, step geom.Step) *Port {
	if _, dup := n.outByName[name]; dup {
		panic(fmt.Sprintf("graph: duplicate output %q on %q", name, n.name))
	}
	p := &Port{node: n, Name: name, Dir: Out, Size: size, Step: step}
	n.outputs = append(n.outputs, p)
	n.outByName[name] = p
	return p
}

// RegisterMethod declares a method with its per-invocation compute
// cycles and private memory words (paper Figure 6).
func (n *Node) RegisterMethod(name string, cycles, memory int64) *Method {
	if _, dup := n.methodsByName[name]; dup {
		panic(fmt.Sprintf("graph: duplicate method %q on %q", name, n.name))
	}
	m := &Method{Name: name, Cycles: cycles, Memory: memory}
	n.methods = append(n.methods, m)
	n.methodsByName[name] = m
	return m
}

// RegisterMethodInput maps a data-triggered input onto a method.
func (n *Node) RegisterMethodInput(method, input string) {
	n.registerTrigger(method, Trigger{Input: input})
}

// RegisterMethodInputToken maps a token-triggered input onto a method.
func (n *Node) RegisterMethodInputToken(method, input string, kind token.Kind, tokenName string) {
	n.registerTrigger(method, Trigger{Input: input, Token: kind, TokenName: tokenName})
}

func (n *Node) registerTrigger(method string, t Trigger) {
	m := n.mustMethod(method)
	if _, ok := n.inByName[t.Input]; !ok {
		panic(fmt.Sprintf("graph: method %q references unknown input %q on %q", method, t.Input, n.name))
	}
	m.Triggers = append(m.Triggers, t)
}

// RegisterMethodOutput maps an output onto a method.
func (n *Node) RegisterMethodOutput(method, output string) {
	m := n.mustMethod(method)
	if _, ok := n.outByName[output]; !ok {
		panic(fmt.Sprintf("graph: method %q references unknown output %q on %q", method, output, n.name))
	}
	m.Outputs = append(m.Outputs, output)
}

// RegisterMethodForward marks an output as token-forward-only for the
// method: consumed control tokens pass through, but the method emits no
// data on it.
func (n *Node) RegisterMethodForward(method, output string) {
	m := n.mustMethod(method)
	if _, ok := n.outByName[output]; !ok {
		panic(fmt.Sprintf("graph: method %q references unknown output %q on %q", method, output, n.name))
	}
	m.ForwardOnly = append(m.ForwardOnly, output)
}

func (n *Node) mustMethod(name string) *Method {
	m, ok := n.methodsByName[name]
	if !ok {
		panic(fmt.Sprintf("graph: unknown method %q on %q", name, n.name))
	}
	return m
}

// Input returns the named input port, or nil.
func (n *Node) Input(name string) *Port { return n.inByName[name] }

// Output returns the named output port, or nil.
func (n *Node) Output(name string) *Port { return n.outByName[name] }

// Inputs returns the input ports in declaration order.
func (n *Node) Inputs() []*Port { return n.inputs }

// Outputs returns the output ports in declaration order.
func (n *Node) Outputs() []*Port { return n.outputs }

// Methods returns the methods in declaration order.
func (n *Node) Methods() []*Method { return n.methods }

// Method returns the named method, or nil.
func (n *Node) Method(name string) *Method { return n.methodsByName[name] }

// Memory returns the total private memory of the node: the max over
// methods (they share kernel state; the paper registers the state on
// the methods that use it) plus one iteration of buffering per port
// (paper Figure 5: "inputs and outputs contain implicit buffer space
// for one iteration").
func (n *Node) Memory() int64 {
	var state int64
	for _, m := range n.methods {
		if m.Memory > state {
			state = m.Memory
		}
	}
	var ports int64
	for _, p := range n.inputs {
		ports += p.Words()
	}
	for _, p := range n.outputs {
		ports += p.Words()
	}
	return state + ports
}

func (n *Node) String() string {
	return fmt.Sprintf("%s(%s)", n.name, n.Kind)
}

// Behavior is the functional implementation of a kernel, executed by
// the goroutine runtime. Methods of a kernel share the Behavior
// instance's private state; parallel instances get fresh state via
// Clone. A Behavior implements either Invoker (ordinary kernels fired
// by their lowered Rule) or Step (the compiler's FSM kernels; see
// step.go).
type Behavior interface {
	// Clone returns a Behavior with fresh private state for a new
	// parallel instance of the kernel.
	Clone() Behavior
}

// Invoker is the Behavior flavor of ordinary kernels: the runtime fires
// methods when their trigger inputs have matching items and calls
// Invoke once per firing.
type Invoker interface {
	Behavior
	// Invoke runs the named method. Input items that triggered the
	// invocation are available from ctx; outputs are emitted to ctx.
	Invoke(method string, ctx ExecContext) error
}

// ExecContext is what a Behavior sees during one method invocation.
type ExecContext interface {
	// Input returns the data window consumed from the named input for
	// this invocation. It panics if the input was token-triggered.
	Input(name string) frame.Window
	// Token returns the control token consumed from the named input
	// for this invocation (zero Token for data triggers).
	Token(name string) token.Token
	// Emit writes one data item to the named output.
	Emit(output string, w frame.Window)
	// EmitToken writes a control token to the named output. EOL/EOF
	// forwarding of unhandled tokens is automatic; EmitToken exists
	// for kernels that generate custom tokens.
	EmitToken(output string, t token.Token)
}

// ElemTyped is implemented by Behaviors with element-kind constraints
// or conversions: kernels that require specific input kinds (a
// convolution's float-only multiply-accumulate) or produce a kind other
// than the one arriving (a histogram's float64 counts, a conversion
// kernel's target kind). Behaviors that do not implement it are
// elem-polymorphic pass-throughs: they accept any kind and emit the
// (widest) kind of their data inputs. The contract is descriptive — the
// declared kinds must match what the behavior actually allocates — and
// the compiler inserts conversion kernels wherever the flowing kind is
// not accepted.
type ElemTyped interface {
	// ElemAccepts reports whether the named input handles streams of
	// kind k without conversion.
	ElemAccepts(input string, k frame.Kind) bool
	// ElemOut returns the kind emitted on the named output when the
	// data inputs carry kind in.
	ElemOut(output string, in frame.Kind) frame.Kind
}

// BatchAware is implemented by Behaviors whose listed inputs accept row
// batches (Batch descriptors with N > 1): the executor delivers whole
// row batches to them instead of splitting at the edge, and the kernel
// runs one firing covering N logical invocations. A method fires on the
// common prefix of its data heads: N is the fewest windows any of them
// carries, and a longer head keeps its remaining windows for the next
// firing. An input that does not accept batches receives single
// windows, which pins N to 1. A behavior that accepts batches on an
// input must produce, per batch, the exact logical output stream that N
// scalar firings would — the conformance suite diffs the two.
type BatchAware interface {
	// AcceptsBatch reports whether the named input handles batches.
	AcceptsBatch(input string) bool
}

// BatchContext is the optional ExecContext extension batch-aware
// Invoker kernels use: contexts that can carry batches (the runtime
// driver) implement it; the sequential oracle and test mocks need not,
// and kernels fall back to the scalar path when the assertion fails or
// the input's batch has N <= 1.
type BatchContext interface {
	// Batch returns the batch descriptor of the item consumed from the
	// named input; the zero Batch for plain items.
	Batch(input string) Batch
	// EmitBatch writes one batched data item to the named output (N <= 1
	// degrades to Emit).
	EmitBatch(output string, w frame.Window, b Batch)
}
