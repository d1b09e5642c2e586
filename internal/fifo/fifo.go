// Package fifo is the one bounded FIFO channel (§II) every stream queue
// is built on: the runtime's input rings, the cluster's cut-edge and
// relay queues, the simulator's port queues and a session's frame
// queue. Each owner keeps only its own policy — when to refuse, block
// or grow — around a Ring.
package fifo

import "math"

// Unbounded is the limit of a ring whose owner bounds occupancy itself.
const Unbounded = math.MaxInt

// Ring is a circular FIFO of T holding at most limit elements. Its
// storage grows by doubling up to the limit and is then reused, so a
// warm ring allocates nothing; a slot is cleared as it is freed, so the
// ring never retains what it has handed on. Growth copies into a fresh
// array and never rewrites the old one: a pointer from Peek stays
// readable across it. Not safe for concurrent use.
type Ring[T any] struct {
	buf   []T
	head  int // index of the oldest element
	n     int // elements queued
	limit int
	hw    int // occupancy high-water mark
}

// New returns a ring with storage for size elements, bounded at limit.
func New[T any](size, limit int) Ring[T] {
	return Ring[T]{buf: make([]T, size), limit: limit}
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Limit returns the occupancy bound.
func (r *Ring[T]) Limit() int { return r.limit }

// HighWater returns the largest occupancy the ring has reached.
func (r *Ring[T]) HighWater() int { return r.hw }

// Push appends *v, or reports false when the ring already holds limit
// elements.
func (r *Ring[T]) Push(v *T) bool {
	if r.n == r.limit {
		return false
	}
	if r.n == len(r.buf) {
		r.resize()
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = *v
	r.n++
	if r.n > r.hw {
		r.hw = r.n
	}
	return true
}

// Peek returns the oldest element in place. The ring must be non-empty.
func (r *Ring[T]) Peek() *T { return &r.buf[r.head] }

// Drop removes the oldest element, clearing its slot. The ring must be
// non-empty.
func (r *Ring[T]) Drop() {
	var zero T
	r.buf[r.head] = zero
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

// Pop removes and returns the oldest element. The ring must be
// non-empty.
func (r *Ring[T]) Pop() T {
	v := *r.Peek()
	r.Drop()
	return v
}

// PopInto appends up to count of the oldest elements to dst, in order.
func (r *Ring[T]) PopInto(dst []T, count int) []T {
	for ; count > 0 && r.n > 0; count-- {
		dst = append(dst, r.Pop())
	}
	return dst
}

// Grow doubles the limit of a bounded ring; the storage follows as
// pushes need it.
func (r *Ring[T]) Grow() { r.limit *= 2 }

// resize doubles the storage, never past the limit, unwrapping the
// contents to the front of a fresh array.
func (r *Ring[T]) resize() {
	buf := make([]T, min(max(2*len(r.buf), 16), r.limit))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
