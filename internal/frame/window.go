// Package frame provides the two-dimensional data carried on stream
// channels: windows (the unit item moved per kernel iteration), whole
// frames, deterministic synthetic frame generators, and golden
// sequential implementations of the paper's filters used to verify the
// transformed applications functionally.
package frame

import (
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// Window is a row-major 2-D block of samples. It is the value a channel
// carries per kernel iteration: a (1x1) window for pixel streams, a
// (5x5) window for a buffered convolution input, a (32x1) window for
// histogram bins, and so on.
//
// A window is either dense (rows packed back to back, Stride zero) or a
// strided view sharing another window's storage (Stride is the parent's
// row pitch, measured in elements). Views are how the zero-copy data
// plane avoids per-item copies; consumers that index storage directly
// must either require IsDense or go through At/Row. Storage may
// additionally be pooled (see Alloc); pooled windows follow the
// retain/release protocol described in pool.go.
//
// The element type is a first-class property (Kind): the zero value F64
// stores samples in Pix, while U8 and F32 windows store them at native
// width in raw. Generic accessors (At, Set, Value) promote to float64;
// the row-batched kernel loops use the typed spans (Row, RowU8, RowF32)
// so the inner loops are free of per-sample conversions and bounds
// checks the compiler cannot hoist.
type Window struct {
	W, H int
	// Stride is the row pitch in elements; zero means dense (rows of
	// exactly W elements, packed).
	Stride int
	// Kind is the element type; the zero value is F64.
	Kind Kind
	// Pix is the element storage of F64 windows (nil otherwise).
	Pix []float64
	// raw is the native-width element storage of U8 and F32 windows
	// (nil for F64). For F32 it aliases a []float32 allocation, so
	// 4-byte alignment holds by construction.
	raw []byte

	// ref tracks pooled backing storage; nil for plain windows.
	ref *Ref
}

// RowStride returns the distance in elements between vertically
// adjacent samples.
func (w Window) RowStride() int {
	if w.Stride > 0 {
		return w.Stride
	}
	return w.W
}

// IsDense reports whether storage is packed row-major with no gaps.
func (w Window) IsDense() bool { return w.Stride == 0 || w.Stride == w.W }

// NewWindow allocates a zeroed w×h dense F64 window.
func NewWindow(w, h int) Window {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("frame: invalid window size %dx%d", w, h))
	}
	return Window{W: w, H: h, Pix: make([]float64, w*h)}
}

// NewWindowKind allocates a zeroed w×h dense window of the given
// element kind.
func NewWindowKind(k Kind, w, h int) Window {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("frame: invalid window size %dx%d", w, h))
	}
	switch k {
	case U8:
		return Window{W: w, H: h, Kind: U8, raw: make([]byte, w*h)}
	case F32:
		return Window{W: w, H: h, Kind: F32, raw: f32bytes(make([]float32, w*h))}
	default:
		return Window{W: w, H: h, Pix: make([]float64, w*h)}
	}
}

// f32bytes views a float32 slice as its backing bytes.
func f32bytes(f []float32) []byte {
	if len(f) == 0 {
		return []byte{}
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), len(f)*4)
}

// bytesF32 views a byte slice as float32s; the base must be 4-aligned,
// which holds for every storage path that produces F32 windows (typed
// allocations and the pool's 8-aligned buffers).
func bytesF32(b []byte) []float32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// WrapBytes wraps raw — w*h elements of kind k at native width — as a
// dense typed window without copying. The base must be suitably
// aligned for k (AlignedBytes and pool storage both are). F64 callers
// should construct a Window with Pix directly instead.
func WrapBytes(k Kind, w, h int, raw []byte) Window {
	if k == F64 || !k.Valid() {
		panic(fmt.Sprintf("frame: WrapBytes of %v", k))
	}
	if len(raw) != w*h*k.Bytes() {
		panic(fmt.Sprintf("frame: WrapBytes %v %dx%d needs %d bytes, got %d",
			k, w, h, w*h*k.Bytes(), len(raw)))
	}
	return Window{W: w, H: h, Kind: k, raw: raw}
}

// AlignedBytes returns an empty byte slice with at least the given
// capacity whose base address is 8-byte aligned (it is backed by a
// float64 allocation), suitable for carving typed window storage out
// of.
func AlignedBytes(capacity int) []byte {
	return f64bytes(make([]float64, (capacity+7)/8))[:0]
}

// Scalar returns a 1x1 F64 window holding v.
func Scalar(v float64) Window {
	return Window{W: 1, H: 1, Pix: []float64{v}}
}

// FromRows builds a dense F64 window from row-major rows; all rows must
// have the same length.
func FromRows(rows [][]float64) Window {
	h := len(rows)
	if h == 0 {
		return Window{}
	}
	w := len(rows[0])
	win := NewWindow(w, h)
	for y, row := range rows {
		if len(row) != w {
			panic("frame: ragged rows")
		}
		copy(win.Pix[y*w:(y+1)*w], row)
	}
	return win
}

// At returns the sample at (x, y) promoted to float64. It panics on
// out-of-range access.
func (w Window) At(x, y int) float64 {
	if x < 0 || x >= w.W || y < 0 || y >= w.H {
		panic(fmt.Sprintf("frame: At(%d,%d) outside %dx%d", x, y, w.W, w.H))
	}
	i := y*w.RowStride() + x
	switch w.Kind {
	case U8:
		return float64(w.raw[i])
	case F32:
		return float64(bytesF32(w.raw)[i])
	default:
		return w.Pix[i]
	}
}

// Set stores v at (x, y), narrowing to the window's element kind (u8
// stores clamp to [0,255] and round half away from zero). It panics on
// out-of-range access.
func (w Window) Set(x, y int, v float64) {
	if x < 0 || x >= w.W || y < 0 || y >= w.H {
		panic(fmt.Sprintf("frame: Set(%d,%d) outside %dx%d", x, y, w.W, w.H))
	}
	i := y*w.RowStride() + x
	switch w.Kind {
	case U8:
		w.raw[i] = quantizeU8(v)
	case F32:
		bytesF32(w.raw)[i] = float32(v)
	default:
		w.Pix[i] = v
	}
}

// quantizeU8 is the explicit narrowing rule of the data plane: clamp to
// [0,255], round half away from zero. Conversion kernels and Set share
// it so a narrowed stream is reproducible everywhere.
func quantizeU8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// Row returns the y-th row as a span of exactly W float64 samples,
// valid for dense and strided F64 windows alike. It panics for typed
// windows — use RowU8/RowF32 (or At) for those.
func (w Window) Row(y int) []float64 {
	if w.Kind != F64 {
		panic(rowKindError{"Row", w.Kind})
	}
	s := w.RowStride()
	return w.Pix[y*s : y*s+w.W]
}

// RowU8 returns the y-th row of a U8 window as a span of W bytes.
func (w Window) RowU8(y int) []byte {
	if w.Kind != U8 {
		panic(rowKindError{"RowU8", w.Kind})
	}
	s := w.RowStride()
	return w.raw[y*s : y*s+w.W]
}

// RowF32 returns the y-th row of an F32 window as a span of W floats.
func (w Window) RowF32(y int) []float32 {
	if w.Kind != F32 {
		panic(rowKindError{"RowF32", w.Kind})
	}
	s := w.RowStride()
	return bytesF32(w.raw)[y*s : y*s+w.W]
}

// rowKindError is the panic of a typed row accessor used on a window of
// another kind. It formats its message only when printed, which keeps
// the accessors cheap enough to inline: a row loop over many small
// windows then copies no Window per call.
type rowKindError struct {
	accessor string
	kind     Kind
}

func (e rowKindError) Error() string {
	return fmt.Sprintf("frame: %s on %v window", e.accessor, e.kind)
}

// Bytes returns the y-th row's native-width storage (any kind): W
// elements starting at the row origin. Used by the wire codec to
// encode windows without promotion.
func (w Window) RowBytes(y int) []byte {
	es := w.Kind.Bytes()
	s := w.RowStride()
	if w.Kind == F64 {
		row := w.Pix[y*s : y*s+w.W]
		if len(row) == 0 {
			return nil
		}
		return unsafe.Slice((*byte)(unsafe.Pointer(&row[0])), len(row)*8)
	}
	return w.raw[y*s*es : (y*s+w.W)*es]
}

// Value returns the single sample of a 1x1 window, promoted.
func (w Window) Value() float64 {
	if w.W != 1 || w.H != 1 {
		panic(fmt.Sprintf("frame: Value() on %dx%d window", w.W, w.H))
	}
	return w.At(0, 0)
}

// Clone returns an independent dense, unpooled deep copy of the window,
// preserving its element kind. Kernels use it for any input they keep
// across firings.
func (w Window) Clone() Window {
	out := NewWindowKind(w.Kind, w.W, w.H)
	copyRows(out, w)
	return out
}

// copyRows copies the sample rows of src into the dense window dst;
// both must have the same shape and kind.
func copyRows(dst, src Window) {
	es := src.Kind.Bytes()
	s := src.RowStride()
	if src.Kind == F64 {
		for y := 0; y < src.H; y++ {
			copy(dst.Pix[y*src.W:(y+1)*src.W], src.Pix[y*s:y*s+src.W])
		}
		return
	}
	for y := 0; y < src.H; y++ {
		copy(dst.raw[y*src.W*es:(y+1)*src.W*es], src.raw[y*s*es:(y*s+src.W)*es])
	}
}

// Dense returns a window whose storage is packed row-major; the
// receiver itself when it already is, a compact copy otherwise.
func (w Window) Dense() Window {
	if w.IsDense() {
		if w.Kind == F64 {
			if len(w.Pix) == w.W*w.H {
				return w
			}
			return Window{W: w.W, H: w.H, Pix: w.Pix[:w.W*w.H], ref: w.ref}
		}
		es := w.Kind.Bytes()
		if len(w.raw) == w.W*w.H*es {
			return w
		}
		return Window{W: w.W, H: w.H, Kind: w.Kind, raw: w.raw[:w.W*w.H*es], ref: w.ref}
	}
	return w.Clone()
}

// Sub returns a dense copy of the sub-window of size sw×sh anchored at
// (x, y), preserving the element kind.
func (w Window) Sub(x, y, sw, sh int) Window {
	out := NewWindowKind(w.Kind, sw, sh)
	copyRows(out, w.View(x, y, sw, sh))
	return out
}

// View returns a vw×vh window sharing the receiver's storage, anchored
// at (x, y) — the zero-copy counterpart of Sub. The view is valid as
// long as the parent's storage is: it shares any pooled backing, so
// the retain/release protocol covers both. Mutations through either
// window are visible in the other.
func (w Window) View(x, y, vw, vh int) Window {
	if x < 0 || y < 0 || vw < 0 || vh < 0 || x+vw > w.W || y+vh > w.H {
		panic(fmt.Sprintf("frame: View(%d,%d,%dx%d) outside %dx%d", x, y, vw, vh, w.W, w.H))
	}
	s := w.RowStride()
	off := y*s + x
	end := off + (vh-1)*s + vw
	if vw == 0 || vh == 0 {
		end = off
	}
	out := Window{W: vw, H: vh, Stride: s, Kind: w.Kind, ref: w.ref}
	if w.Kind == F64 {
		out.Pix = w.Pix[off:end]
	} else {
		es := w.Kind.Bytes()
		out.raw = w.raw[off*es : end*es]
	}
	return out
}

// AppendColumns appends the n logical windows of a row span to dst:
// window j is the bw-wide, full-height view at column j*sx, equal field
// for field to w.View(j*sx, 0, bw, w.H). The bounds are checked once
// for the span and each view is built in place, so cutting an output
// span into its windows costs one header store per window.
func (w Window) AppendColumns(dst []Window, n, sx, bw int) []Window {
	if n <= 0 {
		return dst
	}
	if sx < 0 || bw < 0 || (n-1)*sx+bw > w.W {
		panic(fmt.Sprintf("frame: AppendColumns(%d, step %d, %d wide) outside %dx%d", n, sx, bw, w.W, w.H))
	}
	s := w.RowStride()
	span := 0 // elements from a view's first sample to one past its last
	if bw > 0 && w.H > 0 {
		span = (w.H-1)*s + bw
	}
	k := len(dst)
	dst = slices.Grow(dst, n)[:k+n]
	cols := dst[k:]
	v := Window{W: bw, H: w.H, Stride: s, Kind: w.Kind, ref: w.ref}
	if w.Kind == F64 {
		for j, off := 0, 0; j < len(cols); j, off = j+1, off+sx {
			v.Pix = w.Pix[off : off+span]
			cols[j] = v
		}
		return dst
	}
	es := w.Kind.Bytes()
	for j, off := 0, 0; j < len(cols); j, off = j+1, off+sx*es {
		v.raw = w.raw[off : off+span*es]
		cols[j] = v
	}
	return dst
}

// SetRow stores src as row y, narrowing each sample by Set's rule:
// quantizeU8 for U8, float32 for F32, a plain copy for F64. src must
// hold exactly W samples.
func (w Window) SetRow(y int, src []float64) {
	if len(src) != w.W || y < 0 || y >= w.H {
		panic(fmt.Sprintf("frame: SetRow(%d) of %d samples on %dx%d", y, len(src), w.W, w.H))
	}
	switch w.Kind {
	case U8:
		dst := w.RowU8(y)
		for x, v := range src {
			dst[x] = quantizeU8(v)
		}
	case F32:
		dst := w.RowF32(y)
		for x, v := range src {
			dst[x] = float32(v)
		}
	default:
		copy(w.Row(y), src)
	}
}

// Convert returns a dense, unpooled copy of the window with the given
// element kind. Widening conversions (u8→f32/f64, f32→f64) are exact;
// narrowing to f32 rounds to nearest, and narrowing to u8 clamps to
// [0, 255] and rounds half away from zero (see quantizeU8).
func (w Window) Convert(to Kind) Window {
	if to == w.Kind {
		return w.Clone()
	}
	out := NewWindowKind(to, w.W, w.H)
	for y := 0; y < w.H; y++ {
		for x := 0; x < w.W; x++ {
			out.Set(x, y, w.At(x, y))
		}
	}
	return out
}

// Equal reports whether two windows have identical element kind, shape,
// and samples. Kinds are compared strictly: a u8 window never equals an
// f64 window, even when promotion would make the samples agree — typed
// streams diff against the f64 oracle through the conformance layer's
// explicit tolerance gate, not through silent promotion here.
func (w Window) Equal(o Window) bool {
	if w.W != o.W || w.H != o.H || w.Kind != o.Kind {
		return false
	}
	switch w.Kind {
	case U8:
		for y := 0; y < w.H; y++ {
			wr, or := w.RowU8(y), o.RowU8(y)
			for x := range wr {
				if wr[x] != or[x] {
					return false
				}
			}
		}
	case F32:
		for y := 0; y < w.H; y++ {
			wr, or := w.RowF32(y), o.RowF32(y)
			for x := range wr {
				if wr[x] != or[x] {
					return false
				}
			}
		}
	default:
		ws, os := w.RowStride(), o.RowStride()
		for y := 0; y < w.H; y++ {
			wr, or := w.Pix[y*ws:y*ws+w.W], o.Pix[y*os:y*os+w.W]
			for x := range wr {
				if wr[x] != or[x] {
					return false
				}
			}
		}
	}
	return true
}

// AlmostEqual reports shape equality and element-wise |a-b| <= tol
// after promotion to float64. Unlike Equal it tolerates differing
// element kinds: it is the comparison the conformance tolerance gate
// uses to diff typed backends against the f64 oracle.
func (w Window) AlmostEqual(o Window, tol float64) bool {
	if w.W != o.W || w.H != o.H {
		return false
	}
	for y := 0; y < w.H; y++ {
		for x := 0; x < w.W; x++ {
			if math.Abs(w.At(x, y)-o.At(x, y)) > tol {
				return false
			}
		}
	}
	return true
}

func (w Window) String() string {
	if w.Kind != F64 {
		return fmt.Sprintf("Window(%dx%d %v)", w.W, w.H, w.Kind)
	}
	return fmt.Sprintf("Window(%dx%d)", w.W, w.H)
}

// Frame is a whole image: a Window with frame-level helpers. Frames are
// what generators produce and what golden reference filters consume.
type Frame = Window

// Windows enumerates, in scan-line order (left-to-right, top-to-bottom),
// every ww×wh window position of f advanced by (sx, sy), calling fn with
// the window's top-left coordinate. It is the canonical iteration-space
// walk shared by golden implementations and tests.
func Windows(f Frame, ww, wh, sx, sy int, fn func(x, y int)) {
	if ww > f.W || wh > f.H || ww < 1 || wh < 1 || sx < 1 || sy < 1 {
		return
	}
	for y := 0; y+wh <= f.H; y += sy {
		for x := 0; x+ww <= f.W; x += sx {
			fn(x, y)
		}
	}
}
