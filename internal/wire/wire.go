// Package wire is the versioned binary codec of the distributed
// execution plane: it moves windows and control tokens between a
// bpserve frontend and bpworker processes as length-prefixed frames
// over any byte stream (TCP in production, loopback listeners and
// net.Pipe in tests).
//
// Design rules, in order:
//
//   - Never trust the peer. Every decode operates on a bounded byte
//     slice with explicit range checks and returns an error — a
//     truncated, corrupt, or hostile frame must never panic or
//     allocate an attacker-chosen amount of memory (FuzzWire enforces
//     this).
//   - Never copy a window twice. Encoding appends samples row by row
//     straight out of the (possibly strided, possibly pooled)
//     frame.Window into the connection's write buffer; there is no
//     intermediate dense copy. Decoding allocates from the frame
//     arena, so a received window is pooled storage the receiver owns
//     one reference to, under the standard retain/release contract.
//     A received EdgeFrame is not decoded at all: its items stay
//     encoded in one arena slab, which a relay forwards verbatim and
//     only the consuming worker turns into windows (EdgeFrame, Slab).
//   - Version explicitly. The handshake carries a magic and a protocol
//     version; everything after it is frames of [u32 length | u8 type
//     | payload | u32 crc32c] with all integers big-endian and float64
//     samples as IEEE-754 bits. The CRC32C trailer covers type+payload,
//     so a corrupted frame is a typed decode error (ErrCorrupt), never
//     silently wrong samples.
//
// See docs/cluster.md for the full frame catalogue and the control
// flow between frontend and worker.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"blockpar/internal/frame"
	"blockpar/internal/token"
)

// Magic opens the Hello frame: "BPW" plus the wire format generation.
const Magic uint32 = 0x42505702 // "BPW\x02"

// Version is the protocol version spoken by this build. A peer with a
// different version is rejected at handshake. Since v8 a session has
// one shape on the wire: OpenPartition places (or, with its resume
// watermarks set, re-places) one partition of the session's plan, and a
// session that runs whole is the one-partition plan. Windows are tagged
// with their element kind and carry samples at native width; an edge
// item may carry a row-batch descriptor. v9 drops the executor name
// from Register; v10 drops its pipeline inventory (Welcome carries it)
// and empties Heartbeat to a bare lease renewal.
const Version uint16 = 10

// MaxFrame bounds a single frame's encoded size; a length prefix past
// it is treated as corruption and kills the connection before any
// allocation happens.
const MaxFrame = 1 << 28 // 256 MiB

// maxDim bounds a decoded window's width and height, and maxWindowBytes
// its total storage in bytes — the natural unit now that windows travel
// at native element width — independent of the frame length check.
const (
	maxDim         = 1 << 20
	maxWindowBytes = 1 << 28 // 256 MiB, any element kind
	// maxWins bounds the windows one row batch may pack.
	maxWins = 1 << 25
)

// maxStr bounds any decoded string or byte blob.
const maxStr = 1 << 20

// ErrCorrupt tags every decode failure, so transports can distinguish
// protocol corruption from I/O errors.
var ErrCorrupt = errors.New("wire: corrupt frame")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// ---- primitive append helpers ----

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return binary.BigEndian.AppendUint64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b []byte, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

// reader walks a payload with sticky-error bounds checking: after the
// first short read every subsequent accessor returns zero values and
// the error survives to the final check.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = corruptf("truncated %s at offset %d/%d", what, r.off, len(r.b))
	}
}

func (r *reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail(what)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *reader) u8(what string) uint8 {
	p := r.take(1, what)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *reader) u16(what string) uint16 {
	p := r.take(2, what)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint16(p)
}

func (r *reader) u32(what string) uint32 {
	p := r.take(4, what)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

func (r *reader) u64(what string) uint64 {
	p := r.take(8, what)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

func (r *reader) i64(what string) int64 { return int64(r.u64(what)) }

func (r *reader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

func (r *reader) str(what string) string {
	n := r.u32(what)
	if r.err == nil && n > maxStr {
		r.err = corruptf("%s length %d exceeds limit %d", what, n, maxStr)
		return ""
	}
	return string(r.take(int(n), what))
}

func (r *reader) bytes(what string) []byte {
	n := r.u32(what)
	if r.err == nil && n > maxStr {
		r.err = corruptf("%s length %d exceeds limit %d", what, n, maxStr)
		return nil
	}
	p := r.take(int(n), what)
	if p == nil {
		return nil
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// count checks an element count just read from a header against the
// bytes that remain: every element occupies at least minBytes of
// payload, so a count the frame cannot carry is corruption, caught
// before anything is sized from it. Decoders size their slices once
// from the returned count.
func (r *reader) count(n, minBytes int, what string) int {
	if r.err != nil {
		return 0
	}
	if n < 0 || n > (len(r.b)-r.off)/minBytes {
		r.err = corruptf("%s %d exceeds the %d bytes left in the frame", what, n, len(r.b)-r.off)
		return 0
	}
	return n
}

// finish asserts the payload was consumed exactly.
func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return corruptf("%d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// ---- window and token codec ----

// AppendWindow appends a window's wire form: u32 W, u32 H, u8 element
// kind, then W*H samples at the kind's native width in row-major scan
// order (u8 raw, f32 as big-endian IEEE-754 bits, f64 likewise). The
// samples are written directly from the window's storage honoring its
// stride — a pooled or strided view is encoded without an intermediate
// dense copy, and a byte window moves one eighth the f64 traffic.
func AppendWindow(b []byte, w frame.Window) []byte {
	b = appendU32(b, uint32(w.W))
	b = appendU32(b, uint32(w.H))
	b = append(b, byte(w.Kind))
	switch w.Kind {
	case frame.U8:
		for y := 0; y < w.H; y++ {
			b = append(b, w.RowU8(y)...)
		}
	case frame.F32:
		for y := 0; y < w.H; y++ {
			for _, v := range w.RowF32(y) {
				b = appendU32(b, math.Float32bits(v))
			}
		}
	default:
		for y := 0; y < w.H; y++ {
			for _, v := range w.Row(y) {
				b = appendU64(b, math.Float64bits(v))
			}
		}
	}
	return b
}

// minWindowBytes is the smallest encoded window (u32 W, u32 H, u8 kind,
// no samples) and minItemBytes the smallest item (tag + window; a token
// item is longer).
const (
	minWindowBytes = 9
	minItemBytes   = 1 + minWindowBytes
)

// windowHeader reads and validates one window's shape, including that
// the payload still carries every sample the shape promises — so the
// caller may allocate and copy without further checks.
func windowHeader(r *reader) (w, h int, k frame.Kind, ok bool) {
	hdr := r.take(minWindowBytes, "window header")
	if hdr == nil {
		return 0, 0, 0, false
	}
	w = int(binary.BigEndian.Uint32(hdr))
	h = int(binary.BigEndian.Uint32(hdr[4:]))
	k = frame.Kind(hdr[8])
	if !k.Valid() {
		r.err = corruptf("unknown element kind %d", k)
		return 0, 0, 0, false
	}
	eb := k.Bytes()
	if w < 0 || h < 0 || w > maxDim || h > maxDim || (h > 0 && w > maxWindowBytes/eb/h) {
		r.err = corruptf("window size %dx%d (%s) out of range", w, h, k)
		return 0, 0, 0, false
	}
	// Bound before allocating: the remaining payload must actually
	// carry W*H native-width samples.
	if need := w * h * eb; r.off+need > len(r.b) {
		r.fail("window samples")
		return 0, 0, 0, false
	}
	return w, h, k, true
}

// readSamples fills win, whose shape windowHeader just validated, from
// the payload: each row's bytes are taken once and converted in a loop
// free of per-sample checks. Every sample is written, which is what
// lets the storage come from frame.AllocUninit.
func readSamples(r *reader, win *frame.Window) {
	switch win.Kind {
	case frame.U8:
		for y := 0; y < win.H; y++ {
			copy(win.RowU8(y), r.take(win.W, "window sample"))
		}
	case frame.F32:
		for y := 0; y < win.H; y++ {
			row := win.RowF32(y)
			src := r.take(4*len(row), "window sample")
			for i := range row {
				row[i] = math.Float32frombits(binary.BigEndian.Uint32(src[4*i:]))
			}
		}
	default:
		stride := win.RowStride()
		for y := 0; y < win.H; y++ {
			row := win.Pix[y*stride : y*stride+win.W]
			src := r.take(8*len(row), "window sample")
			for i := range row {
				row[i] = math.Float64frombits(binary.BigEndian.Uint64(src[8*i:]))
			}
		}
	}
}

// decodeWindow reads one window, allocating its storage from the frame
// arena: the caller owns one reference and must Release it (or hand it
// to a consumer that will) per the pool contract.
func decodeWindow(r *reader) frame.Window {
	w, h, k, ok := windowHeader(r)
	if !ok {
		return frame.Window{}
	}
	win := frame.AllocUninit(k, w, h)
	readSamples(r, &win)
	return win
}

// decodeWindows reads the n windows of one result output. An output
// port's windows share one kind and width (1×1 scalars, 2×2 quads,
// histogram rows), so they are decoded into ONE arena buffer — a
// W×ΣH slab — and returned as views of it, each holding one of the
// slab's n references: one pool get per output instead of one per
// window. A first pass over the headers finds the slab's height and
// validates every window against the payload; a stream that does mix
// shapes falls back to a buffer per window. On error nothing is left
// allocated.
func decodeWindows(r *reader, n int) []frame.Window {
	if n == 0 {
		return nil
	}
	start := r.off
	var w0, sumH int
	var k0 frame.Kind
	uniform := n > 1
	for j := 0; j < n && uniform; j++ {
		w, h, k, ok := windowHeader(r)
		if !ok {
			return nil
		}
		if j == 0 {
			w0, k0 = w, k
		}
		uniform = w == w0 && k == k0
		sumH += h
		r.off += w * h * k.Bytes()
	}
	r.off = start
	// The list comes from the arena like the samples do; whoever ends
	// the result's windows with frame.ReleaseList hands it back.
	wins := frame.AllocList(n)
	if !uniform {
		for j := 0; j < n; j++ {
			win := decodeWindow(r)
			if r.err != nil {
				frame.ReleaseList(wins)
				return nil
			}
			wins = append(wins, win)
		}
		return wins
	}
	slab := frame.AllocUninit(k0, w0, sumH)
	slab.Retain(n - 1)
	wins = wins[:n]
	y := 0
	for j := range wins {
		// The first pass validated every header; only the height varies.
		h := int(binary.BigEndian.Uint32(r.b[r.off+4:]))
		r.off += minWindowBytes
		wins[j] = slab.View(0, y, w0, h)
		readSamples(r, &wins[j])
		y += h
	}
	return wins
}

// DecodeWindow decodes a standalone window payload (fuzz and test
// entry point; messages embed windows via the same routine).
func DecodeWindow(b []byte) (frame.Window, error) {
	r := &reader{b: b}
	w := decodeWindow(r)
	if err := r.finish(); err != nil {
		w.Release()
		return frame.Window{}, err
	}
	return w, nil
}

// AppendToken appends a control token: u8 kind, i64 seq, name string.
func AppendToken(b []byte, t token.Token) []byte {
	b = append(b, byte(t.Kind))
	b = appendI64(b, t.Seq)
	return appendStr(b, t.Name)
}

func decodeToken(r *reader) token.Token {
	k := token.Kind(r.u8("token kind"))
	seq := r.i64("token seq")
	name := r.str("token name")
	if r.err != nil {
		return token.Token{}
	}
	if k < token.None || k > token.Custom {
		r.err = corruptf("unknown token kind %d", k)
		return token.Token{}
	}
	if k != token.Custom && name != "" {
		r.err = corruptf("token kind %v carries a name", k)
		return token.Token{}
	}
	return token.Token{Kind: k, Seq: seq, Name: name}
}

// DecodeToken decodes a standalone control-token payload.
func DecodeToken(b []byte) (token.Token, error) {
	r := &reader{b: b}
	t := decodeToken(r)
	if err := r.finish(); err != nil {
		return token.Token{}, err
	}
	return t, nil
}

// Item is the wire form of one in-band channel item: a data window or
// a control token, mirroring graph.Item. The session plane today moves
// whole frames (Feed) and grouped results (Result); Item is the unit
// the partition plane's EdgeFrame transports.
type Item struct {
	IsToken bool
	Win     frame.Window
	Tok     token.Token
	// B is the row-batch descriptor (protocol v6). The zero value means
	// a plain single-window item.
	B Batch
}

// Batch mirrors graph.Batch on the wire: the carried window packs N
// logical Bw-wide windows, each starting Sx element columns after the
// previous one.
type Batch struct {
	N, Sx, Bw int32
}

// IsBatch reports whether the descriptor packs more than one window.
func (b Batch) IsBatch() bool { return b.N > 1 }

// spanW is the window width a batch of this shape must occupy.
func (b Batch) spanW() int { return int(b.N-1)*int(b.Sx) + int(b.Bw) }

// AppendItem appends an item: u8 tag (0 data, 1 token, 2 batched data)
// and the body.
func AppendItem(b []byte, it Item) []byte {
	if it.IsToken {
		b = append(b, 1)
		return AppendToken(b, it.Tok)
	}
	if it.B.IsBatch() {
		b = append(b, 2)
		b = appendU32(b, uint32(it.B.N))
		b = appendU32(b, uint32(it.B.Sx))
		b = appendU32(b, uint32(it.B.Bw))
		return AppendWindow(b, it.Win)
	}
	b = append(b, 0)
	return AppendWindow(b, it.Win)
}

// DecodeItem decodes a standalone item payload. Data windows come from
// the frame arena; the caller owns one reference.
func DecodeItem(b []byte) (Item, error) {
	r := &reader{b: b}
	it := decodeItem(r)
	if err := r.finish(); err != nil {
		if !it.IsToken {
			it.Win.Release()
		}
		return Item{}, err
	}
	return it, nil
}

// itemHeader reads one item up to its samples and validates all of it:
// the tag, a batch descriptor against its window's width, a token, and
// a window's shape against the samples left in the payload. It leaves r
// at a data item's first sample and returns the window's shape. The
// header walk that keeps an EdgeFrame encoded and the full decoder both
// go through it, so they accept exactly the same items.
func itemHeader(r *reader) (it Item, w, h int, k frame.Kind) {
	switch tag := r.u8("item tag"); tag {
	case 0:
	case 1:
		return Item{IsToken: true, Tok: decodeToken(r)}, 0, 0, 0
	case 2:
		it.B = Batch{
			N:  int32(r.u32("batch n")),
			Sx: int32(r.u32("batch sx")),
			Bw: int32(r.u32("batch bw")),
		}
		if r.err == nil {
			b := it.B
			if b.N < 2 || int64(b.N) > maxWins {
				r.err = corruptf("batch of %d windows", b.N)
				return Item{}, 0, 0, 0
			}
			if b.Sx < 1 || b.Bw < 1 || int64(b.Sx) > maxDim || int64(b.Bw) > maxDim {
				r.err = corruptf("batch geometry %dx step %d", b.Bw, b.Sx)
				return Item{}, 0, 0, 0
			}
		}
	default:
		r.err = corruptf("unknown item tag %d", tag)
		return Item{}, 0, 0, 0
	}
	w, h, k, ok := windowHeader(r)
	if !ok {
		return Item{}, 0, 0, 0
	}
	if b := it.B; b.IsBatch() && w != b.spanW() {
		r.err = corruptf("batch of %d %d-wide windows step %d needs a %d-wide window, got %dx%d",
			b.N, b.Bw, b.Sx, b.spanW(), w, h)
		return Item{}, 0, 0, 0
	}
	return it, w, h, k
}

// decodeItem reads one item, a data window's storage from the arena.
func decodeItem(r *reader) Item {
	it, w, h, k := itemHeader(r)
	if r.err != nil || it.IsToken {
		return it
	}
	it.Win = frame.AllocUninit(k, w, h)
	readSamples(r, &it.Win)
	return it
}

// skipItem walks one item without materialising it and returns the
// sample bytes its window carries (0 for a token).
func skipItem(r *reader) int64 {
	it, w, h, k := itemHeader(r)
	if r.err != nil || it.IsToken {
		return 0
	}
	// itemHeader checked that the payload carries every sample.
	n := w * h * k.Bytes()
	r.off += n
	return int64(n)
}

// releaseWindows returns decoded windows to the arena on a failed
// decode, so corrupt frames cannot leak pool references.
func releaseWindows(ws []NamedWindow) {
	for _, nw := range ws {
		nw.Win.Release()
	}
}
