package frame

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file implements the pooled backing-store arena behind zero-copy
// windows. The paper's premise (§III-B) is that a compiled graph runs
// in fixed, pre-sized memory regions; the software data plane mirrors
// that with a size-bucketed arena: kernels allocate window storage with
// Alloc/AllocKind, the runtime releases it at the graph edge where the
// item is consumed, and the storage cycles back for the next window of
// the same shape. sync.Pool backs the buckets, so a missed Release
// degrades to ordinary garbage collection instead of a leak.
//
// Buckets are classed by BYTES, not samples, so a 4096-pixel u8 window
// and a 512-sample f64 window recycle the same 4 KiB class. Every
// bucket's storage is a []float64 (8-byte aligned by construction);
// typed windows view it through unsafe.Slice, which keeps u8/f32 spans
// aligned for free.
//
// Ownership protocol (see DESIGN.md "Memory model"):
//
//   - A window returned by Alloc carries one reference, owned by
//     whoever holds the item.
//   - Delivering the item to k consumers requires k references: the
//     sender calls Retain(k-1) before fan-out.
//   - A consumer must end its reference exactly once: Release it,
//     forward the item downstream (ownership transfers), or keep it
//     forever (batch results).
//   - Clone always returns independent, unpooled storage; kernels use
//     it for anything they keep across firings.
//
// Windows whose storage did not come from Alloc (generator frames,
// Clone results, literals) have a nil ref and every protocol call is a
// no-op on them, so the protocol is safe to apply uniformly.

const (
	// minBucketLog is the smallest byte class (8 bytes: one f64 sample,
	// the 1×1 scalar hot path).
	minBucketLog = 3
	// maxBucketLog is the largest byte class the arena recycles
	// (8 MiB); larger windows fall through to plain allocation.
	maxBucketLog = 23
)

// Ref counts the live references to one pooled backing buffer.
type Ref struct {
	refs atomic.Int32
	// buf is the bucket's storage. It is always a []float64 — even for
	// typed windows — so the base address is 8-aligned and any element
	// kind can view it safely.
	buf    []float64
	bucket int
}

var buckets [maxBucketLog + 1]sync.Pool

// classStats are one byte class's monitoring counters, padded so that
// no two classes' counters share a cache line and allocations in
// different classes never contend. An alloc adds to exactly one of hits
// and misses and the final Release adds to puts: two atomic updates per
// alloc/release pair. Stats derives everything PoolStats reports from
// these.
type classStats struct {
	hits   atomic.Int64 // allocs served by a pooled buffer
	misses atomic.Int64 // allocs that made a new buffer on the heap
	puts   atomic.Int64 // buffers returned by the final Release
	_      [128 - 3*8]byte
}

var classes [maxBucketLog + 1]classStats

// statsBase is what ResetStats zeroes the reported counters against;
// the class counters themselves only ever grow, which keeps
// PooledBytes whole across a reset.
var statsBase struct {
	sync.Mutex
	hits, misses, puts int64
}

// PoolStats is a monitoring snapshot of the window arena, exposed by
// the serving /metrics endpoint and the bpsim -run stats output.
type PoolStats struct {
	// Gets counts pooled allocations; Hits of them were served from a
	// bucket without touching the heap.
	Gets int64 `json:"gets"`
	Hits int64 `json:"hits"`
	// Puts counts buffers returned by a final Release. Gets - Puts
	// equals Live, so a Puts gauge that stops tracking Gets after a
	// failure is the signature of a reference leak.
	Puts int64 `json:"puts"`
	// Live is the number of pooled buffers currently retained
	// somewhere in a pipeline or result set.
	Live int64 `json:"live"`
	// PooledBytes approximates the bytes parked in the buckets ready
	// for reuse (an upper bound: the GC may evict pool entries).
	PooledBytes int64 `json:"pooled_bytes"`
}

// HitRate returns the fraction of pooled allocations served without a
// heap allocation.
func (s PoolStats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// Stats snapshots the arena counters. Per class it reads puts first,
// then hits and misses, then puts again: a buffer is put after it was
// got and got after it was put, so the first read keeps Live (Gets -
// Puts) from under-reporting and the second keeps PooledBytes (puts -
// hits, per class) from going negative while allocations run.
func Stats() PoolStats {
	var s PoolStats
	for b := range classes {
		c := &classes[b]
		puts := c.puts.Load()
		hits, misses := c.hits.Load(), c.misses.Load()
		s.Puts += puts
		s.Hits += hits
		s.Gets += hits + misses
		s.PooledBytes += (c.puts.Load() - hits) << b
	}
	statsBase.Lock()
	s.Hits -= statsBase.hits
	s.Gets -= statsBase.hits + statsBase.misses
	s.Puts -= statsBase.puts
	statsBase.Unlock()
	s.Live = s.Gets - s.Puts
	return s
}

// ResetStats zeroes the arena's Gets, Hits, Puts and Live (benchmark
// harness use); PooledBytes is a level, not a count, and keeps its
// value.
func ResetStats() {
	statsBase.Lock()
	defer statsBase.Unlock()
	statsBase.hits, statsBase.misses, statsBase.puts = 0, 0, 0
	for b := range classes {
		c := &classes[b]
		statsBase.puts += c.puts.Load()
		statsBase.hits += c.hits.Load()
		statsBase.misses += c.misses.Load()
	}
}

// poison gates the debug use-after-release detector: released buffers
// are filled with poison so any consumer still reading them diverges
// loudly in the differential conformance checks instead of silently
// reading recycled data. Tests enable it; production leaves it off.
var poison atomic.Bool

// SetPoison toggles release-time buffer poisoning, returning the
// previous setting.
func SetPoison(on bool) bool { return poison.Swap(on) }

// Poisoning reports whether release-time poisoning is enabled.
func Poisoning() bool { return poison.Load() }

// bucketFor returns the smallest byte class holding n bytes, or -1
// when n is out of the arena's range.
func bucketFor(n int) int {
	if n < 1 || n > 1<<maxBucketLog {
		return -1
	}
	b := minBucketLog
	for 1<<b < n {
		b++
	}
	return b
}

// f64bytes views a float64 slice's full capacity as bytes.
func f64bytes(f []float64) []byte {
	if cap(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[:1][0])), cap(f)*8)
}

// Alloc returns a zeroed w×h F64 window backed by the arena. The
// caller owns one reference; see the ownership protocol above. A shape
// outside the arena's range degrades to NewWindow.
func Alloc(w, h int) Window { return AllocKind(F64, w, h) }

// AllocKind returns a zeroed w×h window of the given element kind,
// backed by the arena. Buckets are shared across kinds: storage is
// classed by byte footprint, so typed windows recycle the same buffers
// as f64 ones.
func AllocKind(k Kind, w, h int) Window {
	win := AllocUninit(k, w, h)
	if win.ref != nil {
		// Recycled storage holds its previous window's samples.
		clear(win.Pix)
		clear(win.raw)
	}
	return win
}

// AllocUninit is AllocKind without the zero-fill: the samples are
// whatever the storage's previous window left there, so the caller
// must overwrite every one before the window is read. The wire decoder
// uses it — a decoded window's samples all come from the frame — and so
// do the buffer's window spans, copied whole from its ring, and the
// kernels whose span loops write every output sample.
func AllocUninit(k Kind, w, h int) Window {
	nbytes := w * h * k.Bytes()
	b := bucketFor(nbytes)
	if b < 0 {
		return NewWindowKind(k, w, h)
	}
	var r *Ref
	if v := buckets[b].Get(); v != nil {
		r = v.(*Ref)
		classes[b].hits.Add(1)
	} else {
		r = &Ref{buf: make([]float64, (1<<b)/8), bucket: b}
		classes[b].misses.Add(1)
	}
	r.refs.Store(1)
	win := Window{W: w, H: h, Kind: k, ref: r}
	if k == F64 {
		win.Pix = r.buf[:w*h]
	} else {
		win.raw = f64bytes(r.buf)[:nbytes]
	}
	return win
}

// Retain adds n references to the window's pooled backing buffer so it
// can be delivered to n additional consumers. It is a no-op for
// unpooled windows. Retaining storage that has already been fully
// released is a protocol violation and panics.
func (w Window) Retain(n int) {
	if w.ref == nil || n <= 0 {
		return
	}
	if w.ref.refs.Add(int32(n)) <= int32(n) {
		panic(fmt.Sprintf("frame: Retain(%d) on released pooled window %dx%d", n, w.W, w.H))
	}
}

// Release drops one reference to the window's pooled backing buffer,
// returning the storage to the arena when the last reference ends.
// It is a no-op for unpooled windows. Releasing more references than
// were retained panics.
func (w Window) Release() {
	r := w.ref
	if r == nil {
		return
	}
	left := r.refs.Add(-1)
	if left < 0 {
		panic(fmt.Sprintf("frame: Release of already-released pooled window %dx%d", w.W, w.H))
	}
	if left > 0 {
		return
	}
	classes[r.bucket].puts.Add(1)
	if poison.Load() {
		// 0xFF in every byte: a quiet NaN for f64/f32 rows, 255 for u8
		// rows — any stale reader diverges loudly in the differential
		// conformance comparison instead of silently reading recycled
		// samples.
		raw := f64bytes(r.buf)
		for i := range raw {
			raw[i] = 0xFF
		}
	}
	buckets[r.bucket].Put(r)
}

// Window lists. A frame's output travels between layers as a []Window —
// 720 to 3,072 headers of 88 bytes for the suite's apps, several times
// the bytes of the samples they describe. Allocated per frame they are
// most of what a served frame allocates, and on a heap of a few MB that
// is a collection every dozen frames. So the lists cycle like the
// storage does: the producer of a frame's output takes one with
// AllocList, and whoever consumes the frame ends it with ReleaseList.
// A list that is never released is ordinary garbage.
//
// Lists are classed by capacity, a power of two, and pooled by the
// address of their first element, so neither call allocates.
const (
	// minListLog is the smallest pooled class (64 windows); a shorter
	// list is cheaper to allocate than to recycle.
	minListLog = 6
	maxListLog = 20
)

var lists [maxListLog + 1]sync.Pool

// AllocList returns an empty window list with room for n windows,
// recycled from a released one when n is in range.
func AllocList(n int) []Window {
	if n < 1<<minListLog || n > 1<<maxListLog {
		return make([]Window, 0, n)
	}
	c := minListLog
	for 1<<c < n {
		c++
	}
	if p, _ := lists[c].Get().(*Window); p != nil {
		return unsafe.Slice(p, 1<<c)[:0]
	}
	return make([]Window, 0, 1<<c)
}

// ReleaseList ends the caller's reference on every window of ws and
// recycles the list itself if it came from AllocList. The caller must
// not touch ws afterwards. Release is a no-op on unpooled windows, so
// only pooled ones are visited: a list of slab copies costs one load
// per window.
func ReleaseList(ws []Window) {
	for i := range ws {
		if ws[i].ref != nil {
			ws[i].Release()
		}
	}
	c := minListLog
	for c < maxListLog && 1<<c < cap(ws) {
		c++
	}
	if cap(ws) != 1<<c {
		return
	}
	// Drop the stale headers: they would keep their storage reachable,
	// and a reader still holding the list sees empty windows, not the
	// next frame's.
	clear(ws)
	lists[c].Put(unsafe.SliceData(ws))
}

// Pooled reports whether the window's storage is arena-backed (and so
// participates in the retain/release protocol).
func (w Window) Pooled() bool { return w.ref != nil }

// SharesStorage reports whether two windows are views of the same
// pooled backing buffer.
func (w Window) SharesStorage(o Window) bool { return w.ref != nil && w.ref == o.ref }

// PooledScalar returns a 1×1 pooled window holding v — the hot-path
// variant of Scalar for per-sample kernel outputs.
func PooledScalar(v float64) Window {
	w := Alloc(1, 1)
	w.Pix[0] = v
	return w
}
