package runtime

import (
	"fmt"

	"blockpar/internal/graph"
)

// goroutineEngine is the default scheduling engine: one goroutine per
// node. The input rings provide the pipeline's elasticity and
// backpressure; a node blocked on a full downstream ring simply parks
// its goroutine.
type goroutineEngine struct {
	ex *executor
}

// start launches one goroutine per node and returns a channel closed
// when all of them have exited.
func (eng *goroutineEngine) start() chan struct{} {
	ex := eng.ex
	for i := range ex.plan.nodes {
		ex.wg.Add(1)
		go ex.runDedicated(&ex.plan.nodes[i])
	}
	done := make(chan struct{})
	go func() {
		ex.wg.Wait()
		close(done)
	}()
	return done
}

// runDedicated runs one node to completion on its own goroutine and
// retires it: in streaming mode a kernel panic becomes the session's
// error instead of crashing the process.
func (ex *executor) runDedicated(pn *planNode) {
	defer func() {
		if ex.stream {
			if r := recover(); r != nil {
				ex.fail(fmt.Errorf("node %q panicked: %v", pn.node.Name(), r))
			}
		}
		// This node will consume and produce nothing more.
		ex.nodeDone(pn)
		ex.wg.Done()
	}()
	if err := ex.runNode(pn); err != nil && err != graph.ErrHalt {
		ex.fail(fmt.Errorf("node %q: %w", pn.node.Name(), err))
	}
}
