package runtime

import (
	"fmt"

	"blockpar/internal/graph"
)

// Boundary shims splice a partition of a compiled graph back into a
// whole: when a placement plan cuts an edge between two workers, the
// producing side gains a BoundarySink draining the item stream to the
// transport and the consuming side gains a BoundarySource injecting
// it, so each partition runs as an ordinary session with no other
// runtime changes. The shims are transport-agnostic — the cluster
// layer supplies the callbacks and owns credits, batching, and
// end-of-stream signalling.

// BoundarySource is the behavior of a cut edge's consuming endpoint
// (graph.KindBoundary, one output "out"): the executor runs it like an
// application input, pulling the inbound item stream from the
// transport and forwarding it downstream in order, data windows and
// control tokens alike.
type BoundarySource struct {
	// Pull blocks for the next inbound item; ok is false at
	// end-of-stream or transport abort. Ownership of a data window
	// transfers to the caller.
	Pull func() (graph.Item, bool)
	// Ack, if non-nil, is called after each item has been handed to the
	// partition (the credit-grant hook).
	Ack func()
}

// Clone returns the shim itself: shims are installed per-session on an
// already-cloned graph, never on the shared template.
func (b *BoundarySource) Clone() graph.Behavior { return b }

// BoundarySink is the behavior of a cut edge's producing endpoint
// (graph.KindBoundary, one input "in"): the executor runs it like an
// application output, draining the item stream headed across the cut
// into the transport.
type BoundarySink struct {
	// Push hands one item to the transport. It may block for credit
	// backpressure; on transport abort it must release the item and
	// return, so the partition can keep draining. Ownership of a data
	// window transfers to the transport.
	Push func(graph.Item)
	// Close, if non-nil, signals end-of-stream after the last item.
	Close func()
}

// Clone returns the shim itself (see BoundarySource.Clone).
func (b *BoundarySink) Clone() graph.Behavior { return b }

// AcceptsBatch implements graph.BatchAware: since wire protocol v6 a
// row batch crosses the cut as one item carrying its descriptor, so the
// producing partition never unbatches at the boundary.
func (b *BoundarySink) AcceptsBatch(input string) bool { return true }

// runBoundary runs a boundary shim on its own goroutine: a source
// forwards what its transport pulls until the stream ends, a sink
// pushes what its ring receives until the upstream ends.
func (ex *executor) runBoundary(pn *planNode) error {
	switch b := pn.node.Behavior.(type) {
	case *BoundarySource:
		for {
			it, ok := b.Pull()
			if !ok {
				return nil
			}
			ex.send(pn, 0, it)
			if b.Ack != nil {
				b.Ack()
			}
		}
	case *BoundarySink:
		if b.Close != nil {
			defer b.Close()
		}
		ib := &ex.boxes[pn.id]
		for {
			it, ok := ib.take()
			if !ok {
				return nil
			}
			b.Push(it)
		}
	}
	return fmt.Errorf("runtime: boundary %q has no boundary behavior", pn.node.Name())
}
