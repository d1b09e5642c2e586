package runtime

import (
	"sync"
	"sync/atomic"

	"blockpar/internal/fifo"
	"blockpar/internal/graph"
)

// ring is one input port's FIFO under the runtime's policy. Its
// capacity is fixed when the plan is built (plan.go, "ring capacity")
// and it is allocated once per session. Every ring has one producer (an
// input port has one edge) and one consumer (the owning node); both
// reach it under the owning inbox's mutex — except that the driver reads
// a head it has taken without the lock, which the fifo.Ring keeps
// readable even if the detector grows the ring meanwhile.
type ring struct {
	fifo.Ring[graph.Item]
	// force is set by the deadlock detector: the waiting producer must
	// proceed, growing the ring if it is full (see executor.unwedge). A
	// forced growth shows in Stats as a high-water mark above the
	// planned capacity.
	force bool
}

// held reports whether a producer that stopped at a full ring should
// keep waiting: until the consumer has drained half the ring, so a
// producer that outruns its consumer parks once per half ring, not once
// per item.
func (r *ring) held() bool { return r.Len() > r.Limit()/2 && !r.force }

// Wait states a node publishes for the deadlock detector. A node that
// waits outside the runtime (a feed channel, the result queue, a
// boundary transport) stays waitRunning: the detector must never count
// an external wait as a deadlock.
const (
	waitRunning uint64 = iota
	// waitStarved: parked until any input delivers.
	waitStarved
	// waitBlocked: parked on a full ring; the word names the consumer
	// node and its input.
	waitBlocked
	// waitDone: the node has exited.
	waitDone
)

// A wait word packs kind (2 bits), the node's park epoch (22), a node
// id (20) and an input index (20); waitRunning is the zero word. The
// epoch makes every park a distinct word, so a detector that re-reads
// the word it started from knows the node never moved in between.
const (
	idMask    = 1<<20 - 1
	epochMask = 1<<22 - 1
)

func unpackWait(s uint64) (kind uint64, node, in int32) {
	return s >> 62, int32(s >> 20 & idMask), int32(s & idMask)
}

// inbox is one node's receive side and live counter block: a ring per
// input port, the producer accounting that closes them, the parking
// state the deadlock detector reads, and the firing counters Stats
// reads.
type inbox struct {
	ex *executor
	pn *planNode

	mu sync.Mutex
	// avail wakes the consumer; space wakes producers blocked on a full
	// ring.
	avail sync.Cond
	space sync.Cond

	rings []ring
	// producersLeft counts open producer nodes; closed is set at zero.
	producersLeft int
	closed        bool
	// done is set when the consumer exits: later deliveries are dropped,
	// which is indistinguishable from queueing them forever.
	done bool
	// starved is true while the consumer sleeps on avail.
	starved bool
	// spaceWaiters counts producers in space.Wait.
	spaceWaiters int
	deliveries   int64

	// wait is the node's published wait word (see waitRunning); epoch
	// counts its parks and is touched only by the goroutine running the
	// node.
	wait  atomic.Uint64
	epoch uint64

	// fired counts logical method invocations, by method index: an FSM
	// kernel's one method counts the data items its steps take.
	fired []atomic.Int64
}

func (ib *inbox) init(ex *executor, pn *planNode) {
	ib.ex, ib.pn = ex, pn
	ib.avail.L, ib.space.L = &ib.mu, &ib.mu
	ib.rings = make([]ring, len(pn.ins))
	for i := range ib.rings {
		ib.rings[i].Ring = fifo.New[graph.Item](pn.ins[i].cap, pn.ins[i].cap)
	}
	ib.producersLeft = pn.producers
	ib.closed = pn.producers == 0
	ib.fired = make([]atomic.Int64, len(pn.node.Methods()))
}

// publish announces that the node is about to wait.
func (ib *inbox) publish(kind uint64, node, in int32) {
	ib.epoch++
	ib.wait.Store(kind<<62 | ib.epoch&epochMask<<40 | uint64(node)<<20 | uint64(in))
}

// put delivers one item along edge e from node from. The producer
// blocks while the ring is full (backpressure). Once the run is
// stopping, or the consumer has exited, the item is dropped and its
// window reference released.
func (ex *executor) put(from int32, e *planEdge, it *graph.Item) {
	ib := &ex.boxes[e.node]
	ib.mu.Lock()
	r := &ib.rings[e.in]
	if r.Len() == r.Limit() {
		ex.waitForSpace(from, e, ib)
	}
	if ib.done || ex.stopped.Load() {
		ib.mu.Unlock()
		if !it.IsToken {
			it.Win.Release()
		}
		return
	}
	if !r.Push(it) {
		r.Grow() // forced by the deadlock detector
		r.Push(it)
	}
	r.force = false
	ib.deliveries++
	// Readiness depends only on ring heads, so only a push into an
	// empty ring can make a parked consumer runnable.
	if r.Len() == 1 {
		ib.wake()
	}
	ib.mu.Unlock()
}

// wake makes a parked consumer runnable after an input changed or
// closed. Called with ib.mu held.
func (ib *inbox) wake() {
	// The consumer may be between publishing its wait state and
	// waiting (park's detection window): it will look again either way,
	// so it reads as running from here on. Every writer of a starved
	// word holds ib.mu, so the check cannot race the store. (A consumer
	// blocked as a producer elsewhere keeps that state: it is not
	// looking at its inputs.)
	if ib.wait.Load()>>62 == waitStarved {
		ib.wait.Store(waitRunning)
	}
	if ib.starved {
		ib.avail.Signal()
	}
}

// waitForSpace parks the producer of a full ring until the consumer
// has drained it to half, the detector forces it on, or the run stops.
// Called with ib.mu held; returns with it held.
func (ex *executor) waitForSpace(from int32, e *planEdge, ib *inbox) {
	me := &ex.boxes[from]
	r := &ib.rings[e.in]
	me.publish(waitBlocked, e.node, e.in)
	ex.blocked.Add(1)
	for r.held() && !ib.done && !ex.stopped.Load() {
		if ib.wait.Load() != waitRunning {
			// The consumer is parked too: this block may complete a
			// wait-for cycle.
			ib.mu.Unlock()
			ex.unwedge(from)
			ib.mu.Lock()
			if !r.held() {
				break
			}
		}
		ib.spaceWaiters++
		ib.space.Wait()
		ib.spaceWaiters--
	}
	ex.blocked.Add(-1)
	me.wait.Store(waitRunning)
}

// park blocks the consumer until a delivery, a close, or the stop.
// Called with ib.mu held right after a ready check found nothing to do;
// returns with it held, and the caller must re-check.
func (ib *inbox) park() {
	ex := ib.ex
	// Publish, then look for blocked producers (they publish, then look
	// at us): whichever of the two parks last sees the other.
	ib.publish(waitStarved, 0, 0)
	if ex.blocked.Load() > 0 {
		// This park may complete a wait-for cycle; the last party to
		// park must break it.
		seen := ib.deliveries
		ib.mu.Unlock()
		ex.unwedge(ib.pn.id)
		ib.mu.Lock()
		if ib.deliveries != seen || ib.closed || ex.stopped.Load() {
			ib.wait.Store(waitRunning)
			return
		}
	}
	ib.starved = true
	ib.avail.Wait()
	ib.starved = false
	ib.wait.Store(waitRunning)
}

// freed releases the producer waiting on ring r once the consumer has
// drained it to half (see ring.held). Called with ib.mu held.
func (ib *inbox) freed(r *ring) {
	if r.held() {
		return
	}
	if ib.spaceWaiters > 0 {
		ib.space.Broadcast()
	}
}

// take pops the next item for a one-input endpoint (an application
// output or a boundary sink). ok is false once every producer has
// finished and the ring is drained, or the run is stopping with nothing
// left to drain.
func (ib *inbox) take() (graph.Item, bool) {
	ib.mu.Lock()
	r := &ib.rings[0]
	for r.Len() == 0 {
		if ib.closed || ib.ex.stopped.Load() {
			ib.mu.Unlock()
			return graph.Item{}, false
		}
		ib.park()
	}
	it := r.Pop()
	ib.freed(r)
	ib.mu.Unlock()
	return it, true
}

// producerDone retires one producer node; the inbox closes with the
// last, which wakes the consumer to drain and exit.
func (ib *inbox) producerDone() {
	ib.mu.Lock()
	ib.producersLeft--
	if ib.producersLeft == 0 {
		ib.closed = true
		ib.wake()
	}
	ib.mu.Unlock()
}

// finish marks the consumer gone: whatever its rings still hold goes
// back to the arena (a complete stream leaves them empty; a truncated
// one strands items no firing will consume), later deliveries are
// dropped, and blocked producers are released.
func (ib *inbox) finish() {
	ib.mu.Lock()
	ib.done = true
	for i := range ib.rings {
		r := &ib.rings[i]
		for r.Len() > 0 {
			if it := r.Peek(); !it.IsToken {
				it.Win.Release()
			}
			r.Drop()
		}
		ib.freed(r)
	}
	ib.mu.Unlock()
	ib.publish(waitDone, 0, 0)
}

// unwedge is the deadlock detector, run by a node that has published a
// wait state and holds no lock. Bounded rings can wedge a graph that
// unbounded queues would run: a join starves on one input while the
// producer of another is blocked on its full ring, and the starving
// input's data is stuck behind that block (the diamond whose branches
// differ in latency by more than the ring holds). If every party node
// transitively waits on is itself parked, no delivery can ever come, so
// every full ring in that wait-for closure is forced to grow. The last
// party to park always sees the others' states, so one of them detects
// the cycle. A false positive only costs memory; a node waiting outside
// the runtime reads as running and ends the search.
func (ex *executor) unwedge(node int32) {
	var buf [128]uint64
	w := wedgeSearch{ex: ex, seen: buf[:]}
	if len(ex.boxes) > len(buf) {
		w.seen = make([]uint64, len(ex.boxes))
	}
	if !w.wedged(node) {
		return
	}
	// A deadlock is stable: had any party moved while the search walked
	// past it (this node included — a delivery may have woken it since),
	// the states it read belong to different moments and prove nothing.
	for i, state := range w.seen[:len(ex.boxes)] {
		if state != 0 && ex.boxes[i].wait.Load() != state {
			return
		}
	}
	for _, e := range w.victims[:w.nv] {
		ib := &ex.boxes[e.node]
		ib.mu.Lock()
		r := &ib.rings[e.in]
		r.force = true
		ib.freed(r)
		ib.mu.Unlock()
	}
}

// wedgeSearch is one depth-first walk of the wait-for graph. It lives
// on the detecting goroutine's stack: parking is frequent under
// backpressure and must not allocate.
type wedgeSearch struct {
	ex *executor
	// seen holds the wait state read at each visited node, zero
	// (waitRunning, which ends a search) for the rest.
	seen []uint64
	// victims are the blocked edges met; a search that overflows the
	// array grows those it kept, and the next detection finds the rest.
	victims [16]*planEdge
	nv      int
}

// wedged reports whether node can make no progress unless a ring
// grows. A node already on the search path closes a cycle and counts
// as wedged.
func (w *wedgeSearch) wedged(node int32) bool {
	if w.seen[node] != 0 {
		return true
	}
	ib := &w.ex.boxes[node]
	state := ib.wait.Load()
	w.seen[node] = state
	kind, to, in := unpackWait(state)
	switch kind {
	case waitDone:
		return true
	case waitBlocked:
		// The state is stale once the consumer has drained the ring (the
		// producer is woken but has not run yet): then it is runnable.
		to := &w.ex.boxes[to]
		to.mu.Lock()
		held := to.rings[in].held()
		to.mu.Unlock()
		if !held {
			return false
		}
		if w.nv < len(w.victims) {
			w.victims[w.nv] = to.pn.ins[in].edge
			w.nv++
		}
		return w.wedged(to.pn.id)
	case waitStarved:
		// Starved on every empty input it could fire from: alive if any
		// of their producers is. With none empty, a delivery has come
		// since it parked and it is about to look again.
		var few [8]int32
		waitsOn := few[:0]
		ib.mu.Lock()
		for i := range ib.rings {
			if ib.rings[i].Len() == 0 {
				waitsOn = append(waitsOn, ib.pn.ins[i].producer)
			}
		}
		ib.mu.Unlock()
		if len(waitsOn) == 0 {
			return false
		}
		for _, p := range waitsOn {
			if !w.wedged(p) {
				return false
			}
		}
		return true
	}
	return false
}
