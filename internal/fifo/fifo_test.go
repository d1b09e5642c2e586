package fifo

import "testing"

func TestRingWrapsInOrder(t *testing.T) {
	q := New[int](0, Unbounded)
	next, want := 0, 0
	// Uneven push/pop bursts walk head around the buffer many times and
	// force growth while wrapped.
	for round := 0; round < 200; round++ {
		for i := 0; i < 1+round%7; i++ {
			v := next
			if !q.Push(&v) {
				t.Fatal("unbounded ring refused a push")
			}
			next++
		}
		for i := 0; i < 1+round%5 && q.Len() > 0; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("pop = %d, want %d", got, want)
			}
			want++
		}
	}
	for _, got := range q.PopInto(nil, q.Len()) {
		if got != want {
			t.Fatalf("drain = %d, want %d", got, want)
		}
		want++
	}
	if want != next || q.Len() != 0 {
		t.Fatalf("drained %d of %d, %d left", want, next, q.Len())
	}
}

func TestRingGrowthStopsAtLimit(t *testing.T) {
	const limit = 100 // not a power of two: the last doubling is clamped
	q := New[int](0, limit)
	for i := 0; i < limit; i++ {
		if !q.Push(&i) {
			t.Fatalf("push %d refused below the limit", i)
		}
		if cap(q.buf) > limit {
			t.Fatalf("storage grew to %d, past the limit %d", cap(q.buf), limit)
		}
	}
	v := limit
	if q.Push(&v) {
		t.Fatal("push accepted at the limit")
	}
	// Full-speed reuse at the limit never reallocates.
	buf := &q.buf[0]
	for i := 0; i < 10*limit; i++ {
		q.Pop()
		q.Push(&i)
	}
	if &q.buf[0] != buf {
		t.Error("a warm ring reallocated its storage")
	}
	if q.HighWater() != limit {
		t.Errorf("high water %d, want %d", q.HighWater(), limit)
	}
}

func TestRingPopClearsSlots(t *testing.T) {
	q := New[*int](0, Unbounded)
	for i := 0; i < 40; i++ {
		p := new(int)
		q.Push(&p)
	}
	q.PopInto(nil, 20)
	for q.Len() > 0 {
		q.Drop()
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds its element after pop", i)
		}
	}
}

// TestPeekSurvivesGrowth pins the contract the runtime's driver relies
// on: it reads a ring head without the lock while the deadlock detector
// may grow that ring, so growth must leave the old storage as it was.
func TestPeekSurvivesGrowth(t *testing.T) {
	const limit = 8
	q := New[[2]int](limit, limit)
	for i := 0; i < limit; i++ {
		q.Push(&[2]int{i, -i})
	}
	q.Drop()
	head := q.Peek()
	q.Grow()
	if q.Limit() != 2*limit {
		t.Fatalf("limit %d after Grow, want %d", q.Limit(), 2*limit)
	}
	for i := limit; q.Len() < q.Limit(); i++ {
		if !q.Push(&[2]int{i, -i}) {
			t.Fatalf("push refused at %d of %d", q.Len(), q.Limit())
		}
	}
	if *head != [2]int{1, -1} {
		t.Errorf("peeked head reads %v after growth, want [1 -1]", *head)
	}
	if q.Peek() == head {
		t.Error("the ring did not reallocate; the test exercises nothing")
	}
	if *q.Peek() != [2]int{1, -1} {
		t.Errorf("head %v after growth, want [1 -1]", *q.Peek())
	}
}
