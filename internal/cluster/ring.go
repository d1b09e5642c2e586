package cluster

import "math"

// ring is the FIFO under every queue on the cut-edge data path — an
// inbound edge's decoded items, an outbound edge's items awaiting the
// wire, a partition's relay queue. It is the cut-edge counterpart of
// the runtime's plan-time item rings: where a graph edge inside one
// process gets a ring sized from the compiler's rates, an edge that
// became a cut gets one sized by the credit window placement computed
// for it. Storage grows by doubling up to limit and is then reused for
// the life of the edge; nothing is ever re-sliced, so a warm ring
// allocates nothing. Not safe for concurrent use — each owner already
// holds a mutex around it.
type ring[T any] struct {
	buf   []T
	head  int // index of the oldest element
	n     int // elements queued
	limit int // occupancy bound; push reports false at it
}

// unbounded is the limit of a ring whose owner bounds occupancy itself:
// an outbound edge's push blocks for a credit first, and a relay queue
// only ever holds what those credits let the producers send.
const unbounded = math.MaxInt

func newRing[T any](limit int) ring[T] { return ring[T]{limit: limit} }

func (q *ring[T]) len() int { return q.n }

// push appends v, or reports false when the ring already holds limit
// elements — for an inbound edge, a producer overrunning its credits.
func (q *ring[T]) push(v T) bool {
	if q.n == q.limit {
		return false
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
	return true
}

// grow doubles the storage, never past limit, unwrapping the contents
// to the front of the new buffer.
func (q *ring[T]) grow() {
	c := 2 * len(q.buf)
	if c < 16 {
		c = 16
	}
	if c > q.limit {
		c = q.limit
	}
	buf := make([]T, c)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// pop removes and returns the oldest element, clearing its slot so the
// ring does not pin what it no longer holds. The ring must be non-empty.
func (q *ring[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v
}

// popInto appends up to max of the oldest elements to dst, in order.
func (q *ring[T]) popInto(dst []T, max int) []T {
	for ; max > 0 && q.n > 0; max-- {
		dst = append(dst, q.pop())
	}
	return dst
}
