package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"blockpar/internal/frame"
)

// scriptConn is a net.Conn over memory: reads drain in, writes are
// recorded one slice per call (after passing the optional gate), so a
// test sees exactly what reached the stream and in how many writes.
type scriptConn struct {
	net.Conn // nil; only Read, Write and Close are called
	in       *bytes.Reader

	mu     sync.Mutex
	writes [][]byte
	fail   error // when non-nil, every write fails with it

	// When gate is non-nil the first write closes entered, then waits
	// for gate: the writer is parked inside the stream, connection locked.
	gate, entered chan struct{}
	once          sync.Once
}

func gatedConn() *scriptConn {
	return &scriptConn{gate: make(chan struct{}), entered: make(chan struct{})}
}

func (c *scriptConn) Read(p []byte) (int, error) { return c.in.Read(p) }
func (c *scriptConn) Close() error               { return nil }

func (c *scriptConn) Write(p []byte) (int, error) {
	if c.gate != nil {
		c.once.Do(func() { close(c.entered); <-c.gate })
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail != nil {
		return 0, c.fail
	}
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (c *scriptConn) written() (calls int, stream []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.writes {
		stream = append(stream, w...)
	}
	return len(c.writes), stream
}

// onWire returns the bytes ms occupy on the stream, CRC trailers and
// all, written one message per flush.
func onWire(t testing.TB, ms ...Msg) []byte {
	t.Helper()
	sc := &scriptConn{}
	c := NewConn(sc)
	for _, m := range ms {
		if err := c.Write(m); err != nil {
			t.Fatalf("write %s: %v", m.Type(), err)
		}
	}
	_, stream := sc.written()
	return stream
}

// scramble rewrites, in place and size for size, everything a decoder
// has to copy out of the read buffer: strings, byte blobs and window
// samples. The result encodes to exactly as many bytes as before.
func scramble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			scramble(v.Elem())
		}
	case reflect.String:
		v.SetString(strings.Repeat("#", v.Len()))
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if v.Type().Elem().Kind() == reflect.Uint8 {
				v.Index(i).SetUint('#')
			} else {
				scramble(v.Index(i))
			}
		}
	case reflect.Struct:
		if w, ok := v.Interface().(frame.Window); ok {
			repl := frame.NewWindowKind(w.Kind, w.W, w.H)
			for y := 0; y < w.H; y++ {
				for x := 0; x < w.W; x++ {
					repl.Set(x, y, 35)
				}
			}
			v.Set(reflect.ValueOf(repl))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				scramble(v.Field(i))
			}
		}
	}
}

// TestConnReadDoesNotAlias pins the read buffer's ownership rule: a
// connection decodes every frame out of one buffer it reuses, so a
// decoded message must own all of its strings, descriptor bytes and
// window samples. For every message type, message A is read, then a
// message B of the same size with every such byte changed is read into
// the same buffer and released under poisoning; A must not have moved.
func TestConnReadDoesNotAlias(t *testing.T) {
	defer frame.SetPoison(frame.SetPoison(true))
	for _, m := range sampleMsgs() {
		wireA := onWire(t, m)
		other, err := Decode(MsgType(wireA[4]), wireA[5:len(wireA)-crcSize])
		if err != nil {
			t.Fatal(err)
		}
		scramble(reflect.ValueOf(other))
		wireB := onWire(t, other)
		releaseMsg(other)
		if len(wireB) != len(wireA) {
			t.Fatalf("%s: scrambled twin is %d bytes, original %d", m.Type(), len(wireB), len(wireA))
		}

		c := NewConn(&scriptConn{in: bytes.NewReader(append(wireA, wireB...))})
		a, err := c.Read()
		if err != nil {
			t.Fatalf("%s: read A: %v", m.Type(), err)
		}
		buf := &c.rbuf[0]
		b, err := c.Read()
		if err != nil {
			t.Fatalf("%s: read B: %v", m.Type(), err)
		}
		if &c.rbuf[0] != buf {
			t.Errorf("%s: a same-sized frame was read into a new buffer", m.Type())
		}
		releaseMsg(b)
		if !msgEqual(m, a) {
			t.Errorf("%s: message changed when the next frame was read:\n  sent %#v\n  now  %#v", m.Type(), m, a)
		}
		releaseMsg(a)
	}
}

// TestConnReadBufferGrowsToLargestFrame: frames of different sizes
// back to back decode out of one buffer that only ever grows.
func TestConnReadBufferGrowsToLargestFrame(t *testing.T) {
	small := &Feed{SID: 1, Seq: 0, Inputs: []NamedWindow{{Name: "in", Win: typedTestWindow(frame.U8, 4, 4)}}}
	large := &Feed{SID: 1, Seq: 1, Inputs: []NamedWindow{{Name: "in", Win: typedTestWindow(frame.F64, 48, 32)}}}
	c := NewConn(&scriptConn{in: bytes.NewReader(onWire(t, small, large, small))})
	var caps []int
	for _, want := range []Msg{small, large, small} {
		got, err := c.Read()
		if err != nil {
			t.Fatal(err)
		}
		if !msgEqual(want, got) {
			t.Fatalf("frame %d decoded differently", len(caps))
		}
		releaseMsg(got)
		caps = append(caps, cap(c.rbuf))
	}
	if caps[1] <= caps[0] || caps[2] != caps[1] {
		t.Errorf("read buffer capacities %v: want growth to the large frame, then reuse", caps)
	}
}

// TestResultWindowsShareOneSlab: a result output's windows decode into
// one arena buffer cut into views — one pool get, every view dense and
// independently releasable — while an output mixing shapes falls back
// to a buffer per window. Either way nothing stays live once released.
func TestResultWindowsShareOneSlab(t *testing.T) {
	scalars := make([]frame.Window, 720)
	for i := range scalars {
		scalars[i] = frame.Scalar(float64(i))
	}
	quads := []frame.Window{typedTestWindow(frame.U8, 2, 2), typedTestWindow(frame.U8, 2, 3), typedTestWindow(frame.U8, 2, 2)}
	mixed := []frame.Window{frame.Scalar(1), typedTestWindow(frame.F32, 3, 1), frame.Scalar(2)}
	m := &Result{SID: 1, Seq: 2, Outputs: []NamedWindows{
		{Name: "a", Wins: scalars}, {Name: "b", Wins: quads}, {Name: "c", Wins: mixed},
	}}
	b := Append(nil, m)
	before := frame.Stats()
	got, err := Decode(TypeResult, b[5:])
	if err != nil {
		t.Fatal(err)
	}
	if !msgEqual(m, got) {
		t.Fatal("result changed in the round trip")
	}
	if gets := frame.Stats().Gets - before.Gets; gets != 1+1+3 {
		t.Errorf("decode took %d arena buffers, want 5 (a slab each for outputs a and b, 3 windows of c)", gets)
	}
	outs := got.(*Result).Outputs
	for _, out := range outs[:2] {
		for i, w := range out.Wins {
			if !w.IsDense() || !w.SharesStorage(out.Wins[0]) {
				t.Fatalf("output %s window %d is not a dense view of the output's slab", out.Name, i)
			}
		}
	}
	if outs[2].Wins[0].SharesStorage(outs[2].Wins[2]) {
		t.Error("mixed-shape output shares storage")
	}
	// Views release independently, in any order; the slab goes back to
	// the arena with the last one.
	for _, out := range outs {
		for i := len(out.Wins) - 1; i >= 0; i-- {
			out.Wins[i].Release()
		}
	}
	if live := frame.Stats().Live - before.Live; live != 0 {
		t.Errorf("%d arena buffers still live after releasing every window", live)
	}
}

// hostileFrames are 40-byte payloads whose headers claim far more
// elements than 40 bytes can carry.
func hostileFrames() map[string][]byte {
	pad := func(b []byte) []byte { return append(b, make([]byte, 40-len(b))...) }
	ef := appendU32(appendU64(nil, 7), 1) // sid, edge
	ef = appendU16(append(ef, 0), 0xffff) // flags, item count
	res := appendU16(appendI64(appendU64(nil, 7), 3), 1)
	res = appendU32(appendStr(res, "out"), maxWins)
	feed := appendU16(appendI64(appendU64(nil, 7), 3), 0xffff)
	outs := appendU16(appendI64(appendU64(nil, 7), 3), 0xffff)
	return map[string][]byte{
		TypeEdgeFrame.String():        append([]byte{byte(TypeEdgeFrame)}, pad(ef)...),
		TypeResult.String():           append([]byte{byte(TypeResult)}, pad(res)...),
		TypeFeed.String():             append([]byte{byte(TypeFeed)}, pad(feed)...),
		TypeResult.String() + "/outs": append([]byte{byte(TypeResult)}, pad(outs)...),
	}
}

// TestDecodeRejectsHostileCounts: a count is checked against the bytes
// that remain before anything is sized from it, so a tiny frame
// claiming 65,535 items or maxWins windows is corruption, not a
// multi-megabyte allocation.
func TestDecodeRejectsHostileCounts(t *testing.T) {
	for name, frm := range hostileFrames() {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		_, err := Decode(MsgType(frm[0]), frm[1:])
		runtime.ReadMemStats(&ms1)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: hostile count decoded with error %v, want ErrCorrupt", name, err)
		}
		// What is allowed: the message, the error, their formatting — not
		// the 9 MB of items or 3 GB of windows the header claims.
		if got := ms1.TotalAlloc - ms0.TotalAlloc; got > 1<<16 {
			t.Errorf("%s: rejecting the frame allocated %d bytes", name, got)
		}
	}
}

func BenchmarkDecodeHostileCount(b *testing.B) {
	for name, frm := range hostileFrames() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(MsgType(frm[0]), frm[1:]); err == nil {
					b.Fatal("hostile count accepted")
				}
			}
		})
	}
}

// BenchmarkDecodeResult decodes app 4's result shape: one output of
// 720 1×1 f64 windows.
func BenchmarkDecodeResult(b *testing.B) {
	wins := make([]frame.Window, 720)
	for i := range wins {
		wins[i] = frame.Scalar(float64(i))
	}
	payload := Append(nil, &Result{SID: 1, Seq: 2, Outputs: []NamedWindows{{Name: "result", Wins: wins}}})[5:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Decode(TypeResult, payload)
		if err != nil {
			b.Fatal(err)
		}
		releaseMsg(m)
	}
}

// TestConnWriteCoalesces pins the flush rule: a writer flushes unless
// another is already waiting for the connection, so contended writers
// share a write to the stream, serial writers get one each, and the
// bytes are the same either way.
func TestConnWriteCoalesces(t *testing.T) {
	const n = 8
	msg := func() Msg { return &Credit{SID: 7, N: 1} }
	serial := onWire(t, func() []Msg {
		ms := make([]Msg, n)
		for i := range ms {
			ms[i] = msg()
		}
		return ms
	}()...)

	t.Run("serial", func(t *testing.T) {
		sc := &scriptConn{}
		c := NewConn(sc)
		for i := 0; i < n; i++ {
			if err := c.Write(msg()); err != nil {
				t.Fatal(err)
			}
			if calls, _ := sc.written(); calls != i+1 {
				t.Fatalf("after %d serial writes the stream saw %d", i+1, calls)
			}
		}
		if _, stream := sc.written(); !bytes.Equal(stream, serial) {
			t.Error("serial writes changed the bytes on the wire")
		}
		if got := c.Flushes(); got != n {
			t.Errorf("Flushes() = %d, want %d", got, n)
		}
	})

	t.Run("batch", func(t *testing.T) {
		sc := &scriptConn{}
		c := NewConn(sc)
		ms := make([]Msg, n)
		for i := range ms {
			ms[i] = msg()
		}
		if err := c.Write(ms...); err != nil {
			t.Fatal(err)
		}
		if calls, stream := sc.written(); calls != 1 || !bytes.Equal(stream, serial) {
			t.Errorf("a batch of %d took %d writes (want 1) or changed the bytes", n, calls)
		}
	})

	t.Run("contended", func(t *testing.T) {
		// The first writer is held inside the stream's Write, with the
		// connection locked, until the other n-1 are all waiting.
		sc := gatedConn()
		c := NewConn(sc)
		var wg sync.WaitGroup
		var failed atomic.Int32
		write := func() {
			defer wg.Done()
			if err := c.Write(msg()); err != nil {
				failed.Add(1)
			}
		}
		wg.Add(n)
		go write()
		<-sc.entered
		for i := 1; i < n; i++ {
			go write()
		}
		for c.waiters.Load() != n-1 {
			runtime.Gosched()
		}
		close(sc.gate)
		wg.Wait()
		if failed.Load() != 0 {
			t.Fatalf("%d writes failed", failed.Load())
		}
		calls, stream := sc.written()
		if calls >= n {
			t.Errorf("%d contended writers took %d writes to the stream, want fewer", n, calls)
		}
		if !bytes.Equal(stream, serial) {
			t.Error("coalesced writes changed the bytes on the wire")
		}
	})

	t.Run("unencodable-writer-still-flushes", func(t *testing.T) {
		// A writer whose own message fails must still flush what an
		// earlier writer left it.
		sc := gatedConn()
		c := NewConn(sc)
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); c.Write(msg()) }()
		<-sc.entered
		// Second in line: a good message; third: an unencodable one. The
		// mutex does not promise that order, so accept either — what
		// matters is that both good frames reach the stream.
		go func() { defer wg.Done(); c.Write(msg()) }()
		var bad error
		go func() {
			defer wg.Done()
			bad = c.Write(&Feed{Inputs: make([]NamedWindow, 1<<16)})
		}()
		for c.waiters.Load() != 2 {
			runtime.Gosched()
		}
		close(sc.gate)
		wg.Wait()
		if bad == nil {
			t.Error("a feed with 65,536 inputs was written")
		}
		if _, stream := sc.written(); !bytes.Equal(stream, serial[:2*len(serial)/n]) {
			t.Errorf("stream holds %d bytes, want the two good frames", len(stream))
		}
		if err := c.Write(msg()); err != nil {
			t.Errorf("connection unusable after an unencodable message: %v", err)
		}
	})

	t.Run("error-poisons", func(t *testing.T) {
		boom := errors.New("boom")
		sc := &scriptConn{fail: boom}
		c := NewConn(sc)
		if err := c.Write(msg()); !errors.Is(err, boom) {
			t.Fatalf("write on a failing stream returned %v", err)
		}
		sc.mu.Lock()
		sc.fail = nil
		sc.mu.Unlock()
		for i := 0; i < 3; i++ {
			if err := c.Write(msg()); !errors.Is(err, boom) {
				t.Fatalf("write %d after the failure returned %v, want the first error", i, err)
			}
		}
		if calls, _ := sc.written(); calls != 0 {
			t.Errorf("a poisoned connection still wrote %d times", calls)
		}
	})
}

// TestConnWritesWholeFrames: however frames coalesce, every write that
// reaches the stream starts and ends on a frame boundary — a frame that
// does not fit behind the buffered ones goes out after them.
func TestConnWritesWholeFrames(t *testing.T) {
	sc := &scriptConn{}
	c := NewConn(sc)
	big := &Feed{SID: 1, Inputs: []NamedWindow{{Name: "in", Win: typedTestWindow(frame.F64, 64, 48)}}} // 24 KiB
	ms := []Msg{big, big, big, &Credit{SID: 1, N: 1}, big, big}
	if err := c.Write(ms...); err != nil {
		t.Fatal(err)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.writes) < 2 {
		t.Fatalf("%d bytes of frames went out in %d write, want the 64 KiB buffer to overflow", 5*24<<10, len(sc.writes))
	}
	frames := 0
	for i, w := range sc.writes {
		rd := NewConn(&scriptConn{in: bytes.NewReader(w)})
		for {
			m, err := rd.Read()
			if err != nil {
				if rd.br.Buffered() != 0 || !errors.Is(err, io.EOF) {
					t.Fatalf("write %d does not hold whole frames: %v", i, err)
				}
				break
			}
			releaseMsg(m)
			frames++
		}
	}
	if frames != len(ms) {
		t.Errorf("stream carried %d frames, want %d", frames, len(ms))
	}
}
