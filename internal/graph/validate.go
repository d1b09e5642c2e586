package graph

import (
	"errors"
	"fmt"

	"blockpar/internal/token"
)

// Validate checks the structural invariants the compiler relies on:
//
//   - every kernel input is connected exactly once;
//   - every kernel output is connected at least once (outputs of
//     KindOutput nodes excepted — they are sinks);
//   - port geometry is positive;
//   - every method has at least one trigger, and token triggers name
//     declared token kinds;
//   - application inputs carry a frame size and a positive rate;
//   - custom tokens consumed anywhere are rate-bounded by a producer
//     upstream declaration (paper §II-C);
//   - the stream graph is acyclic unless the cycle passes through a
//     KindFeedback node (§III-D).
//
// It returns all problems found joined into one error, or nil.
func (g *Graph) Validate() error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	if len(g.nodes) == 0 {
		report("graph %q has no nodes", g.Name)
	}

	for _, n := range g.nodes {
		g.validateNode(n, report)
	}

	// Input connectivity.
	for _, n := range g.nodes {
		for _, p := range n.Inputs() {
			count := 0
			for _, e := range g.edges {
				if e.To == p {
					count++
				}
			}
			if count == 0 {
				report("input %s is unconnected", p)
			}
			if count > 1 {
				report("input %s has %d producers", p, count)
			}
		}
		for _, p := range n.Outputs() {
			if n.Kind == KindOutput {
				continue
			}
			if len(g.EdgesFrom(p)) == 0 {
				report("output %s is unconnected", p)
			}
		}
	}

	// Edge size agreement: an edge carries items of the producer's
	// output size; the consumer must expect the same item size unless
	// a buffer will re-chunk (buffers are the mechanism for that, so
	// direct mismatches are legal pre-transformation — the analysis
	// flags them; here we only require both ends positive).
	for _, e := range g.edges {
		if !e.From.Size.IsPositive() || !e.To.Size.IsPositive() {
			report("edge %s has non-positive port size", e)
		}
	}

	// Dependency edges must reference graph nodes.
	for _, d := range g.deps {
		if g.nodesByName[d.From.Name()] != d.From || g.nodesByName[d.To.Name()] != d.To {
			report("dependency edge %s -> %s references foreign node", d.From.Name(), d.To.Name())
		}
	}

	// Declared connection groups must reference graph nodes. Their edges
	// may have been rewired by transformations (a lowered share group, a
	// spliced conversion kernel), so edge membership is not re-checked
	// here — AddConn enforces it at declaration time.
	for _, c := range g.conns {
		if g.nodesByName[c.From.node.Name()] != c.From.node {
			report("connection %q: producer %s references foreign node", c.Name, c.From)
		}
		for _, p := range c.To {
			if g.nodesByName[p.node.Name()] != p.node {
				report("connection %q: consumer %s references foreign node", c.Name, p)
			}
		}
	}

	if err := g.checkAcyclic(); err != nil {
		errs = append(errs, err)
	}

	g.checkCustomTokenRates(report)

	return errors.Join(errs...)
}

func (g *Graph) validateNode(n *Node, report func(string, ...any)) {
	for _, p := range append(append([]*Port{}, n.Inputs()...), n.Outputs()...) {
		if !p.Size.IsPositive() {
			report("port %s has non-positive size %v", p, p.Size)
		}
		if !p.Step.IsPositive() {
			report("port %s has non-positive step %v", p, p.Step)
		}
	}
	switch n.Kind {
	case KindInput:
		if !n.FrameSize.IsPositive() {
			report("application input %q has no frame size", n.Name())
		}
		if n.Rate.Num <= 0 {
			report("application input %q has non-positive rate %v", n.Name(), n.Rate)
		}
		if len(n.Outputs()) != 1 || len(n.Inputs()) != 0 {
			report("application input %q must have exactly one output and no inputs", n.Name())
		}
	case KindOutput:
		if len(n.Inputs()) != 1 || len(n.Outputs()) != 0 {
			report("application output %q must have exactly one input and no outputs", n.Name())
		}
	case KindBoundary:
		// A boundary shim is a pure endpoint: exactly one port, driven by
		// its transport rather than triggered methods.
		src := len(n.Outputs()) == 1 && len(n.Inputs()) == 0
		sink := len(n.Inputs()) == 1 && len(n.Outputs()) == 0
		if !src && !sink {
			report("boundary %q must have exactly one port", n.Name())
		}
		if n.Behavior == nil {
			report("boundary %q has no behavior", n.Name())
		}
	default:
		if len(n.Methods()) == 0 {
			report("kernel %q has no methods", n.Name())
		}
	}
	for _, m := range n.Methods() {
		if len(m.Triggers) == 0 {
			report("method %s.%s has no triggers", n.Name(), m.Name)
		}
		if m.Cycles < 0 || m.Memory < 0 {
			report("method %s.%s has negative resources", n.Name(), m.Name)
		}
		for _, t := range m.Triggers {
			if t.Token == token.Custom && t.TokenName == "" {
				report("method %s.%s custom-token trigger missing token name", n.Name(), m.Name)
			}
		}
	}
}

// checkAcyclic verifies the stream graph has no cycles except through
// feedback nodes.
func (g *Graph) checkAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*Node]int)
	var cyc *Node
	var visit func(n *Node) bool
	visit = func(n *Node) bool {
		color[n] = gray
		for _, e := range g.OutEdges(n) {
			next := e.To.node
			// Feedback nodes break cycles by construction: their
			// downstream traversal is skipped.
			if next.Kind == KindFeedback {
				continue
			}
			switch color[next] {
			case gray:
				cyc = next
				return false
			case white:
				if !visit(next) {
					return false
				}
			}
		}
		color[n] = black
		return true
	}
	for _, n := range g.nodes {
		if color[n] == white {
			if !visit(n) {
				return fmt.Errorf("graph has a cycle through %q without a feedback kernel", cyc.Name())
			}
		}
	}
	return nil
}

// checkCustomTokenRates requires every custom-token trigger to have a
// rate-declaring producer somewhere in the graph.
func (g *Graph) checkCustomTokenRates(report func(string, ...any)) {
	declared := make(map[string]bool)
	for _, n := range g.nodes {
		for name := range n.TokenRates {
			declared[name] = true
		}
	}
	for _, n := range g.nodes {
		for _, m := range n.Methods() {
			for _, t := range m.Triggers {
				if t.Token == token.Custom && t.TokenName != "" && !declared[t.TokenName] {
					report("method %s.%s consumes custom token %q but no kernel declares its rate",
						n.Name(), m.Name, t.TokenName)
				}
			}
		}
	}
}
