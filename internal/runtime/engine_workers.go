package runtime

import (
	"fmt"
	"sync"

	"blockpar/internal/graph"
)

// workerEngine is the worker-pool scheduling engine: a fixed set of N
// workers runs ready kernel firings to completion from a shared ready
// queue, decoupling the graph's logical kernel instances from physical
// parallelism (the software analog of the paper's many-kernels-per-PE
// mapping, and the shape SIMD/OpenCL ports of block-parallel programs
// take — see ISSUE references).
//
// Transport is the same per-input rings the goroutine engine uses.
// Dedicated producer goroutines (inputs, stream-FSM runners) block at
// ring capacity, so a fast input cannot materialize a whole frame of
// live windows ahead of its consumers. A pool task never blocks
// mid-firing — a full downstream ring must not stall a worker — so its
// backpressure is a firing rule instead: once a ring it feeds runs high
// the task yields before its next firing and is rescheduled when the
// consumer has drained the ring (yield). Invoker kernels are pure
// event-driven state machines: a delivery into an empty ring marks the
// kernel ready, and a worker later fires its methods until quiescent.
// Stream-FSM runners, inputs, and outputs keep dedicated goroutines —
// they are I/O pumps written in blocking style, not bounded firings.
type workerEngine struct {
	ex      *executor
	workers int

	// readyq carries schedulable kernel tasks; capacity is the task
	// count and the scheduled flag guarantees at most one entry per
	// task, so sends never block.
	readyq chan *workerTask

	// tasksLeft counts unfinished kernel tasks (guarded by taskMu);
	// when it reaches zero the ready queue closes and workers exit.
	taskMu    sync.Mutex
	tasksLeft int
}

// workerTask is the scheduling state of one Invoker kernel node.
// scheduled, yielded and finished are guarded by the node's inbox
// mutex: scheduled means the task is in the ready queue or running,
// yielded that it waits for a downstream ring to drain and must not be
// scheduled by deliveries.
type workerTask struct {
	eng       *workerEngine
	d         *driver
	scheduled bool
	yielded   bool
	finished  bool
	// throttled is set by the task's own deliveries (executor.put) when
	// a ring it feeds runs high; only the worker running the task
	// touches it.
	throttled bool
}

func (eng *workerEngine) start() chan struct{} {
	ex := eng.ex
	// Wire the kernel tasks first so deliveries from the earliest
	// goroutines find them.
	var tasks []*workerTask
	for i := range ex.plan.nodes {
		if pn := &ex.plan.nodes[i]; pn.invoker != nil {
			t := &workerTask{eng: eng, d: newDriver(ex, pn)}
			ex.boxes[i].task = t
			tasks = append(tasks, t)
		}
	}
	eng.tasksLeft = len(tasks)
	eng.readyq = make(chan *workerTask, len(tasks)+1)
	if len(tasks) == 0 {
		close(eng.readyq)
	}

	// Dedicated goroutines: inputs, outputs, stream-FSM runners.
	for i := range ex.plan.nodes {
		if pn := &ex.plan.nodes[i]; pn.invoker == nil {
			ex.wg.Add(1)
			go ex.runDedicated(pn)
		}
	}
	// Kernel tasks whose inbox starts closed (no producers — an
	// empty-trigger corner Validate normally rejects) must still get
	// one run to finish and release their own consumers.
	for _, t := range tasks {
		t.d.ib.mu.Lock()
		if t.d.ib.closed {
			eng.schedule(t)
		}
		t.d.ib.mu.Unlock()
	}

	for i := 0; i < eng.workers; i++ {
		ex.wg.Add(1)
		go eng.worker()
	}
	done := make(chan struct{})
	go func() {
		ex.wg.Wait()
		// A stop strands parked tasks; retire them so their rings go
		// back to the arena.
		for _, t := range tasks {
			eng.finishTask(t)
		}
		close(done)
	}()
	return done
}

func (eng *workerEngine) worker() {
	defer eng.ex.wg.Done()
	for {
		select {
		case t, ok := <-eng.readyq:
			if !ok {
				return
			}
			eng.runTask(t)
		case <-eng.ex.stop:
			return
		}
	}
}

// runTask fires the task's methods until the kernel is quiescent, then
// parks it (a delivery reschedules it) or finishes it (all producers
// closed and nothing left to fire).
func (eng *workerEngine) runTask(t *workerTask) {
	ex, ib := eng.ex, t.d.ib
	for !ex.stopped.Load() {
		if t.throttled && eng.yield(t) {
			return
		}
		ib.mu.Lock()
		act, ok := t.d.next()
		if !ok {
			if ib.closed {
				ib.mu.Unlock()
				break
			}
			t.scheduled = false
			ib.publish(waitStarved, 0, anyInput)
			ib.mu.Unlock()
			if ex.blocked.Load() > 0 {
				ex.unwedge(t.d.pn.id)
			}
			return
		}
		ib.mu.Unlock()
		if err := eng.runAction(t, act); err != nil {
			if err != graph.ErrHalt {
				ex.fail(fmt.Errorf("node %q: %w", t.d.pn.node.Name(), err))
			}
			break
		}
	}
	eng.finishTask(t)
}

// runAction carries out one firing, converting stream-mode kernel
// panics into run failures like the goroutine engine does.
func (eng *workerEngine) runAction(t *workerTask, act action) (err error) {
	if eng.ex.stream {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panicked: %v", r)
			}
		}()
	}
	return t.d.run(act)
}

// finishTask retires a kernel task exactly once: downstream consumers
// lose a producer, and when the last task retires the ready queue
// closes so idle workers exit.
func (eng *workerEngine) finishTask(t *workerTask) {
	ib := t.d.ib
	ib.mu.Lock()
	if t.finished {
		ib.mu.Unlock()
		return
	}
	t.finished = true
	t.scheduled = false
	ib.mu.Unlock()
	t.d.close()
	eng.ex.nodeDone(t.d.pn)
	eng.taskMu.Lock()
	eng.tasksLeft--
	last := eng.tasksLeft == 0
	eng.taskMu.Unlock()
	if last {
		close(eng.readyq)
	}
}

// yield parks a throttled task on the first ring it feeds that is
// still running high, and reports whether it did. The consumer draining
// that ring to half (inbox.freed), or the deadlock detector, resumes
// the task, which then looks at its other rings again before firing.
func (eng *workerEngine) yield(t *workerTask) bool {
	ex, pn, own := eng.ex, t.d.pn, t.d.ib
	for o := range pn.outs {
		for k := range pn.outs[o].edges {
			e := &pn.outs[o].edges[k]
			ib := &ex.boxes[e.node]
			r := &ib.rings[e.in]
			ib.mu.Lock()
			high := r.high()
			ib.mu.Unlock()
			if !high {
				continue
			}
			// Park first, then register: a resume can only follow the
			// registration, and deliveries must not reschedule the task
			// in between.
			own.mu.Lock()
			t.scheduled, t.yielded = false, true
			own.publish(waitBlocked, e.node, e.in)
			own.mu.Unlock()
			ex.blocked.Add(1)
			ib.mu.Lock()
			parked := r.high() && !r.force && !ib.done
			if parked {
				r.waiter = t
			}
			ib.mu.Unlock()
			if parked {
				ex.unwedge(pn.id)
				return true
			}
			ex.blocked.Add(-1)
			own.mu.Lock()
			t.scheduled, t.yielded = true, false
			own.wait.Store(waitRunning)
			own.mu.Unlock()
		}
	}
	t.throttled = false
	return false
}

// resume reschedules a yielded task. Called with the mutex of the
// inbox it waited on held; the task's own inbox mutex nests inside it,
// always in that consumer-to-producer order.
func (eng *workerEngine) resume(t *workerTask) {
	ib := t.d.ib
	ib.mu.Lock()
	if t.yielded {
		t.yielded = false
		eng.ex.blocked.Add(-1)
		eng.schedule(t)
	}
	ib.mu.Unlock()
}

// schedule marks a task runnable after an inbox event. Must be called
// with the task's inbox mutex held.
func (eng *workerEngine) schedule(t *workerTask) {
	if t.finished || t.scheduled || t.yielded {
		return
	}
	t.scheduled = true
	t.d.ib.wait.Store(waitRunning)
	eng.readyq <- t
}
