package kernel

import (
	"fmt"
	"math"

	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/token"
)

// MotionSearch builds the paper's canonical *dynamic* kernel (§VII):
// a block-matching motion estimator whose per-block work varies with
// the data. For each k×k block of the current frame it runs a
// diamond-style refinement against the previous frame held in kernel
// state, stopping when the residual stops improving — so the iteration
// count, and with it the compute time, is data-dependent.
//
// The method declares a typical cost and a worst-case Bound; the
// compiler allocates the bound (analysis.AllocCycles) and the timing
// simulator draws actual costs from the node's cost model, raising a
// runtime resource exception whenever an invocation would exceed the
// bound. searchRange bounds the refinement and determines the bound:
// each refinement step costs ~3·k² cycles and at most searchRange steps
// run.
func MotionSearch(name string, k, searchRange int) *graph.Node {
	if k < 2 || searchRange < 1 {
		panic(fmt.Sprintf("kernel: invalid motion search k=%d range=%d", k, searchRange))
	}
	n := graph.NewNode(name, graph.KindKernel)
	n.CreateInput("in", geom.Sz(k, k), geom.St(k, k), geom.Off(0, 0))
	n.CreateOutput("mv", geom.Sz(2, 1), geom.St(2, 1))

	stepCost := int64(3 * k * k)
	typical := methodOverhead + stepCost*int64(searchRange)/2
	bound := methodOverhead + stepCost*int64(searchRange)
	m := n.RegisterMethod("search", typical, int64(2*k*k))
	m.Bound = bound
	n.RegisterMethodInput("search", "in")
	n.RegisterMethodOutput("search", "mv")

	// The end-of-frame token rolls the reference frame over; the token
	// then forwards on "mv" to keep downstream framing intact.
	n.RegisterMethod("endFrame", methodOverhead, 0)
	n.RegisterMethodInputToken("endFrame", "in", token.EndOfFrame, "")
	n.RegisterMethodForward("endFrame", "mv")

	// The default cost model mirrors the behavior's data-dependent
	// iteration count with a deterministic pseudo-random walk over the
	// same range; callers may override Costs["search"].
	n.Costs = map[string]graph.CostModel{
		"search": DefaultMotionCost(stepCost, searchRange),
	}

	n.Attrs["ktype"] = "motion"
	n.Attrs["kparams"] = fmt.Sprintf("%d,%d", k, searchRange)
	n.Behavior = &motionBehavior{k: k, searchRange: searchRange}
	return n
}

// DefaultMotionCost returns a deterministic per-invocation cost model:
// overhead plus between 1 and maxSteps refinement steps.
func DefaultMotionCost(stepCost int64, maxSteps int) graph.CostModel {
	return func(inv int64) int64 {
		x := uint64(inv)*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
		steps := int64(x%uint64(maxSteps)) + 1
		return methodOverhead + stepCost*steps
	}
}

type motionBehavior struct {
	elemToF64
	k           int
	searchRange int
	prev        []frame.Window // previous frame's blocks in scan order
	cur         []frame.Window
}

func (b *motionBehavior) Clone() graph.Behavior {
	return &motionBehavior{k: b.k, searchRange: b.searchRange}
}

// AcceptsBatch implements graph.BatchAware: a row of blocks arrives as
// one span and its motion vectors leave as one 2N×1 batched row.
func (b *motionBehavior) AcceptsBatch(input string) bool { return input == "in" }

func (b *motionBehavior) Invoke(method string, ctx graph.ExecContext) error {
	switch method {
	case "endFrame":
		b.prev, b.cur = b.cur, nil
		return nil
	case "search":
		// handled below
	default:
		return fmt.Errorf("kernel: motion search has no method %q", method)
	}
	in := ctx.Input("in")
	n, sx := spanIn(ctx, "in", b.k)
	mv := frame.Alloc(2*n, 1)
	for j := 0; j < n; j++ {
		offset, iters := b.searchBlock(in.View(j*sx, 0, b.k, b.k))
		mv.Set(2*j, 0, offset)
		mv.Set(2*j+1, 0, float64(iters))
	}
	emitSpan(ctx, "mv", mv, n, 2)
	return nil
}

// searchBlock estimates the motion of one k×k block against the
// co-located block of the previous frame (zero if this is the first
// frame), refining an offset estimate: a 1-D surrogate of diamond
// search where the "offset" is a brightness shift and iterations
// continue while the residual improves.
func (b *motionBehavior) searchBlock(w frame.Window) (offset float64, iters int) {
	block := w.Clone()
	idx := len(b.cur)
	b.cur = append(b.cur, block)

	var ref frame.Window
	if idx < len(b.prev) {
		ref = b.prev[idx]
	} else {
		ref = frame.NewWindow(b.k, b.k)
	}
	best := residual(block, ref, 0)
	for step := 0; step < b.searchRange; step++ {
		iters++
		improved := false
		for _, d := range []float64{1, -1} {
			if r := residual(block, ref, offset+d); r < best {
				best, offset = r, offset+d
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return offset, iters
}

// residual is the sum of absolute differences between block and
// ref+shift, accumulated row by row in scan order for every element
// kind (mixed kinds promote per sample).
func residual(block, ref frame.Window, shift float64) float64 {
	var sum float64
	if block.Kind == frame.F64 && ref.Kind == frame.F64 {
		for y := 0; y < block.H; y++ {
			br, rr := block.Row(y), ref.Row(y)
			for i, v := range br {
				sum += math.Abs(v - (rr[i] + shift))
			}
		}
		return sum
	}
	for y := 0; y < block.H; y++ {
		for x := 0; x < block.W; x++ {
			sum += math.Abs(block.At(x, y) - (ref.At(x, y) + shift))
		}
	}
	return sum
}
