package frame

import (
	"math"
	"sync"
	"testing"
)

// fill numbers a window's samples row-major: 0, 1, 2, ...
func fill(w Window) Window {
	for y := 0; y < w.H; y++ {
		row := w.Row(y)
		for x := range row {
			row[x] = float64(y*w.W + x)
		}
	}
	return w
}

func TestAllocReleaseCycle(t *testing.T) {
	w := Alloc(8, 4)
	if !w.Pooled() {
		t.Fatal("Alloc returned an unpooled window")
	}
	for _, v := range w.Pix {
		if v != 0 {
			t.Fatal("Alloc did not zero the buffer")
		}
	}
	w.Release()
	// A second release of the same reference must panic.
	defer func() {
		if recover() == nil {
			t.Error("double Release did not panic")
		}
	}()
	w.Release()
}

func TestRetainAfterReleasePanics(t *testing.T) {
	w := Alloc(4, 4)
	w.Release()
	defer func() {
		if recover() == nil {
			t.Error("Retain on released storage did not panic")
		}
	}()
	w.Retain(1)
}

// TestOverlappingViewsAlias checks the aliasing contract: views carved
// from one ring share storage, and a mutation through one is visible
// through every overlapping view.
func TestOverlappingViewsAlias(t *testing.T) {
	ring := fill(Alloc(8, 4))
	a := ring.View(0, 0, 5, 3)
	b := ring.View(2, 1, 5, 3)
	if !a.SharesStorage(ring) || !b.SharesStorage(ring) || !a.SharesStorage(b) {
		t.Fatal("views do not share the ring's storage")
	}
	if a.RowStride() != 8 || b.RowStride() != 8 {
		t.Fatalf("view strides = %d, %d, want the ring width 8", a.RowStride(), b.RowStride())
	}
	// ring(3,2) lies inside both views: a(3,2) and b(1,1).
	a.Set(3, 2, -1)
	if got := b.At(1, 1); got != -1 {
		t.Fatalf("mutation through view a not visible through b: got %v", got)
	}
	if got := ring.At(3, 2); got != -1 {
		t.Fatalf("mutation not visible through the ring: got %v", got)
	}
	ring.Release()
}

// TestViewRetainOutlivesBase checks a retained view keeps the storage
// alive after the base reference is dropped.
func TestViewRetainOutlivesBase(t *testing.T) {
	ring := fill(Alloc(8, 2))
	v := ring.View(2, 0, 3, 2)
	v.Retain(1)
	ring.Release()
	if got := v.At(0, 1); got != 10 {
		t.Fatalf("view after base release: got %v, want 10", got)
	}
	v.Release()
}

// TestCloneOnStridedView checks Clone compacts a strided view into
// dense, independent, unpooled storage.
func TestCloneOnStridedView(t *testing.T) {
	ring := fill(Alloc(8, 4))
	v := ring.View(2, 1, 3, 2)
	c := v.Clone()
	if c.Pooled() {
		t.Fatal("Clone returned pooled storage")
	}
	if !c.IsDense() || len(c.Pix) != 6 {
		t.Fatalf("Clone not dense: stride %d, %d samples", c.Stride, len(c.Pix))
	}
	want := []float64{10, 11, 12, 18, 19, 20}
	for i, v := range c.Pix {
		if v != want[i] {
			t.Fatalf("Clone.Pix[%d] = %v, want %v", i, v, want[i])
		}
	}
	// Independence: mutating the ring must not show through the clone.
	ring.Set(2, 1, 99)
	if c.At(0, 0) != 10 {
		t.Fatal("Clone aliases the source ring")
	}
	ring.Release()
}

// TestDenseOnView compacts a strided view; the result must not share
// storage with the ring (Dense of a strided window is a copy).
func TestDenseOnView(t *testing.T) {
	ring := fill(Alloc(6, 3))
	v := ring.View(1, 0, 4, 3)
	d := v.Dense()
	if !d.IsDense() {
		t.Fatal("Dense returned a strided window")
	}
	if d.SharesStorage(ring) {
		t.Fatal("Dense of a strided view still aliases the ring")
	}
	if d.At(0, 0) != 1 || d.At(3, 2) != 16 {
		t.Fatalf("Dense values wrong: %v, %v", d.At(0, 0), d.At(3, 2))
	}
	ring.Release()
}

// TestReleaseThenReusePoisoning checks the debug detector: with
// poisoning on, storage read after its final release is NaN, so a
// stale view diverges loudly instead of silently reading recycled
// samples.
func TestReleaseThenReusePoisoning(t *testing.T) {
	prev := SetPoison(true)
	defer SetPoison(prev)
	ring := fill(Alloc(8, 2))
	stale := ring.View(0, 0, 4, 2) // kept past the release: a protocol bug
	ring.Release()
	if got := stale.At(0, 0); !math.IsNaN(got) {
		t.Fatalf("released storage read %v, want NaN poison", got)
	}
}

// TestAllocUnpooledOutOfRange checks the arena's one unpooled path: a
// shape whose bytes fall outside every bucket (empty, or past the
// largest class) is plain NewWindowKind storage, and the ownership
// protocol is a no-op on it.
func TestAllocUnpooledOutOfRange(t *testing.T) {
	live := Stats().Live
	for _, c := range []struct {
		k    Kind
		w, h int
	}{{F64, 0, 4}, {U8, 1<<maxBucketLog + 1, 1}} {
		w := AllocKind(c.k, c.w, c.h)
		if w.Pooled() || w.Kind != c.k || w.W != c.w || w.H != c.h {
			t.Fatalf("AllocKind(%v, %d, %d) = %v %dx%d pooled=%v, want unpooled",
				c.k, c.w, c.h, w.Kind, w.W, w.H, w.Pooled())
		}
		w.Retain(3)
		w.Release()
		w.Release()
	}
	if got := Stats().Live; got != live {
		t.Fatalf("unpooled allocations moved the live gauge by %d", got-live)
	}
}

func TestPooledScalar(t *testing.T) {
	s := PooledScalar(2.5)
	if s.Value() != 2.5 || !s.Pooled() {
		t.Fatalf("PooledScalar = %v pooled=%v", s.Value(), s.Pooled())
	}
	s.Release()
}

func TestStatsTrackLiveBuffers(t *testing.T) {
	ResetStats()
	a := Alloc(16, 16)
	b := Alloc(16, 16)
	if got := Stats().Live; got != 2 {
		t.Fatalf("Live = %d, want 2", got)
	}
	a.Release()
	b.Release()
	st := Stats()
	if st.Live != 0 {
		t.Fatalf("Live after release = %d, want 0", st.Live)
	}
	if st.Gets != 2 {
		t.Fatalf("Gets = %d, want 2", st.Gets)
	}
}

// TestStatsMatchRunningTotals pins what Stats reports to the arena's
// original bookkeeping, five running totals updated on every alloc and
// release: gets, hits, puts and live are counts that ResetStats zeroes,
// pooled bytes a level that it keeps. The script runs in a byte class no
// other test touches, emptied first, and tells a hit from a miss by
// whether the window's storage header was seen before.
func TestStatsMatchRunningTotals(t *testing.T) {
	const class = 21
	size := 1 << class
	for buckets[class].Get() != nil {
	}
	ResetStats()
	pooled0 := Stats().PooledBytes
	var m struct{ gets, hits, puts, live, pooled int64 }
	seen := map[*Ref]bool{}
	alloc := func() Window {
		w := AllocUninit(U8, size, 1)
		m.gets++
		m.live++
		if seen[w.ref] {
			m.hits++
			m.pooled -= int64(size)
		}
		seen[w.ref] = true
		return w
	}
	release := func(w Window) {
		w.Release()
		m.live--
		m.puts++
		m.pooled += int64(size)
	}
	reset := func() {
		ResetStats()
		m.gets, m.hits, m.puts, m.live = 0, 0, 0, 0
	}
	check := func(step string) {
		t.Helper()
		want := PoolStats{Gets: m.gets, Hits: m.hits, Puts: m.puts, Live: m.live, PooledBytes: pooled0 + m.pooled}
		if got := Stats(); got != want {
			t.Fatalf("after %s: Stats() = %+v, want %+v", step, got, want)
		}
	}
	a := alloc()
	check("a miss")
	b := alloc()
	check("a second miss")
	release(a)
	check("a release")
	c := alloc()
	check("an alloc that may reuse it")
	release(b)
	release(c)
	check("releasing both")
	reset()
	check("ResetStats")
	d := alloc()
	e := alloc()
	check("two allocs after the reset")
	release(e)
	reset()
	check("ResetStats with a buffer out")
	release(d)
	check("releasing a buffer got before the reset")
}

// TestStatsConcurrentInvariants reads Stats while goroutines allocate,
// share and release windows across several byte classes. Every snapshot
// must be self-consistent — Live == Gets - Puts, 0 <= Hits <= Gets,
// PooledBytes >= 0 — and must never report fewer live buffers than the
// baseline, which the chaos leak check (Live <= baseline once quiet)
// relies on; once the goroutines are done, Live is back to the
// baseline. CI runs it under the race detector with -count=10.
func TestStatsConcurrentInvariants(t *testing.T) {
	base := Stats().Live
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			s := Stats()
			if s.Live != s.Gets-s.Puts || s.Hits < 0 || s.Hits > s.Gets || s.PooledBytes < 0 || s.Live < base {
				t.Errorf("snapshot %d: %+v (baseline Live %d)", n, s, base)
				return
			}
		}
	}()
	shapes := []struct {
		k Kind
		w int
	}{{F64, 1}, {U8, 40}, {F32, 100}, {F64, 600}, {U8, 4096}}
	var workers sync.WaitGroup
	for g := 0; g < 4; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			var held []Window
			for i := 0; i < 3000; i++ {
				s := shapes[(i*(g+1)+g)%len(shapes)]
				w := AllocKind(s.k, s.w, 1)
				if i%5 == 0 {
					w.Retain(1) // a second consumer, ended at once
					w.Release()
				}
				held = append(held, w)
				if len(held) > 2+g {
					held[0].Release()
					held = held[1:]
				}
			}
			for _, w := range held {
				w.Release()
			}
		}(g)
	}
	workers.Wait()
	close(stop)
	reader.Wait()
	if got := Stats().Live; got != base {
		t.Fatalf("Live = %d after every window was released, want the baseline %d", got, base)
	}
}

// TestListCycle checks the window-list half of the arena: a released
// list comes back from AllocList empty, its windows released and its
// stale headers gone, and lists the arena does not class (short ones,
// foreign capacities, nil) pass through both calls untouched.
func TestListCycle(t *testing.T) {
	live := Stats().Live
	reused := false
	// sync.Pool drops a share of Puts under the race detector, so one
	// round trip may miss; twenty do not.
	for try := 0; try < 20 && !reused; try++ {
		ws := AllocList(720)
		if len(ws) != 0 || cap(ws) < 720 {
			t.Fatalf("AllocList(720) = len %d cap %d", len(ws), cap(ws))
		}
		for i := 0; i < 720; i++ {
			ws = append(ws, PooledScalar(float64(i)))
		}
		first := &ws[:1][0]
		ReleaseList(ws)
		if got := Stats().Live; got != live {
			t.Fatalf("ReleaseList left %d windows live", got-live)
		}
		if ws[5].Pix != nil || ws[5].Pooled() {
			t.Fatal("a released list still describes its old windows")
		}
		again := AllocList(700) // same class
		reused = len(again) == 0 && cap(again) == cap(ws) && &again[:1][0] == first
	}
	if !reused {
		t.Error("a released list never came back from AllocList")
	}

	short := AllocList(8)
	ReleaseList(append(short, Scalar(1)))
	if got := AllocList(8); cap(got) != 8 {
		t.Errorf("AllocList(8) has cap %d: short lists are not classed", cap(got))
	}
	ReleaseList(make([]Window, 100)) // a capacity no class has
	ReleaseList(nil)
}
