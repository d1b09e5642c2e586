package wire

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"testing"

	"blockpar/internal/frame"
	"blockpar/internal/token"
)

func TestWindowRoundTrip(t *testing.T) {
	cases := []frame.Window{
		{},
		frame.Scalar(3.25),
		frame.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}}),
		frame.NewWindow(7, 1),
	}
	// A strided view must encode identically to its dense copy.
	parent := frame.FromRows([][]float64{
		{0, 1, 2, 3},
		{4, 5, 6, 7},
		{8, 9, 10, 11},
	})
	cases = append(cases, parent.View(1, 1, 2, 2))

	for _, w := range cases {
		b := AppendWindow(nil, w)
		got, err := DecodeWindow(b)
		if err != nil {
			t.Fatalf("decode %v: %v", w, err)
		}
		if !got.Equal(w) {
			t.Errorf("round trip of %v changed samples", w)
		}
		if w.W*w.H > 0 && !got.Pooled() {
			t.Errorf("decoded %v is not arena-backed", w)
		}
		got.Release()
	}
}

func TestWindowDecodeRejectsCorruption(t *testing.T) {
	good := AppendWindow(nil, frame.FromRows([][]float64{{1, 2}, {3, 4}}))
	cases := map[string][]byte{
		"empty":          {},
		"truncated dims": good[:6],
		"truncated pix":  good[:len(good)-3],
		"trailing":       append(append([]byte{}, good...), 0),
		"huge dims":      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	}
	for name, b := range cases {
		if _, err := DecodeWindow(b); err == nil {
			t.Errorf("%s: decode accepted corrupt window", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v is not tagged ErrCorrupt", name, err)
		}
	}
}

func TestTokenRoundTrip(t *testing.T) {
	for _, tok := range []token.Token{
		token.EOL(3),
		token.EOF(0),
		token.NewCustom("sync", 17),
		{Kind: token.None, Seq: -1},
	} {
		got, err := DecodeToken(AppendToken(nil, tok))
		if err != nil {
			t.Fatalf("decode %v: %v", tok, err)
		}
		if got != tok {
			t.Errorf("round trip changed %v into %v", tok, got)
		}
	}
	if _, err := DecodeToken([]byte{99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("decode accepted an unknown token kind")
	}
}

func TestItemRoundTrip(t *testing.T) {
	items := []Item{
		{Win: frame.Scalar(1.5)},
		{IsToken: true, Tok: token.EOF(2)},
		{Win: frame.FromRows([][]float64{{1, 2, 3, 4, 5}}), B: Batch{N: 2, Sx: 2, Bw: 3}},
		{Win: frame.FromRows([][]float64{{1, 2, 3, 4, 5, 6}}), B: Batch{N: 3, Sx: 2, Bw: 2}},
	}
	for _, it := range items {
		got, err := DecodeItem(AppendItem(nil, it))
		if err != nil {
			t.Fatalf("decode item: %v", err)
		}
		if got.IsToken != it.IsToken {
			t.Fatalf("item tag flipped")
		}
		if it.IsToken {
			if got.Tok != it.Tok {
				t.Errorf("token changed: %v -> %v", it.Tok, got.Tok)
			}
		} else {
			if !got.Win.Equal(it.Win) {
				t.Errorf("window changed")
			}
			if got.B != it.B {
				t.Errorf("batch descriptor changed: %+v -> %+v", it.B, got.B)
			}
			got.Win.Release()
		}
	}
}

// TestItemBatchCorrupt exercises the v6 batch descriptor's bounds: a
// degenerate count, a zero step, and a descriptor whose span disagrees
// with the carried window must all fail as corruption without leaking
// pooled windows.
func TestItemBatchCorrupt(t *testing.T) {
	ok := AppendItem(nil, Item{
		Win: frame.FromRows([][]float64{{1, 2, 3, 4, 5}}), B: Batch{N: 2, Sx: 2, Bw: 3},
	})
	corrupt := func(mutate func(b []byte)) {
		t.Helper()
		b := append([]byte(nil), ok...)
		mutate(b)
		live := frame.Stats().Live
		if _, err := DecodeItem(b); err == nil {
			t.Errorf("decode accepted corrupt batch item %x", b)
		}
		if got := frame.Stats().Live; got != live {
			t.Errorf("corrupt decode leaked %d pooled windows", got-live)
		}
	}
	// Layout after the tag byte: N, Sx, Bw as big-endian u32.
	corrupt(func(b []byte) { b[4] = 1 })  // N = 1: not a batch
	corrupt(func(b []byte) { b[8] = 0 })  // Sx = 0
	corrupt(func(b []byte) { b[12] = 0 }) // Bw = 0
	corrupt(func(b []byte) { b[12] = 4 }) // span 6 != window width 5
}

// sampleMsgs is one instance of every frame type, shared by the
// round-trip test and the fuzz corpus.
func sampleMsgs() []Msg {
	return []Msg{
		&Hello{Version: Version},
		&Welcome{Version: Version, Worker: "w0", Pipelines: []string{"1", "edges"}},
		&EnsurePipeline{ID: "edges", Source: "json", Desc: []byte(`{"name":"edges"}`)},
		&PipelineReady{ID: "edges"},
		&PipelineReady{ID: "bad", Err: "compile failed"},
		&SessionOpened{SID: 7},
		&Feed{SID: 7, Seq: 3, Inputs: []NamedWindow{
			{Name: "in", Win: frame.FromRows([][]float64{{1, 2}, {3, 4}})},
		}},
		&Result{SID: 7, Seq: 3, Outputs: []NamedWindows{
			{Name: "out", Wins: []frame.Window{frame.Scalar(9), frame.Scalar(-1)}},
			{Name: "hist", Wins: nil},
		}},
		&Credit{SID: 7, N: 1},
		&CloseSession{SID: 7},
		&SessionClosed{SID: 7, Completed: 4},
		&Error{SID: 7, Msg: "kernel panic"},
		&Ping{Nonce: 99},
		&Pong{Nonce: 99},
		&Goaway{Reason: "draining"},
		// A whole session: the one-partition plan, every node, no cuts.
		&OpenPartition{SID: 7, Pipeline: "1", MaxInFlight: 8, DeadlineMs: 30_000,
			Nodes: []string{"blur", "sobel", "thresh"}},
		&OpenPartition{SID: 7, Pipeline: "1", Partition: 1, MaxInFlight: 8, DeadlineMs: 30_000,
			Nodes: []string{"sobel", "thresh"},
			Edges: []EdgeSpec{
				{ID: 0, Dir: EdgeIn, Credit: 64, FromNode: "blur", FromPort: "out", ToNode: "sobel", ToPort: "in"},
				{ID: 1, Dir: EdgeOut, Credit: 64, FromNode: "thresh", FromPort: "out", ToNode: "sink", ToPort: "in"},
			}},
		&EdgeFrame{SID: 7, Edge: 1, Items: []Item{
			{Win: frame.FromRows([][]float64{{1, 2}, {3, 4}})},
			{IsToken: true, Tok: token.EOL(0)},
			// A v6 row batch: 3 overlapping 3-wide windows, step 2.
			{Win: frame.FromRows([][]float64{{1, 2, 3, 4, 5, 6, 7}}), B: Batch{N: 3, Sx: 2, Bw: 3}},
		}},
		&EdgeFrame{SID: 7, Edge: 1, EOS: true},
		&EdgeCredit{SID: 7, Edge: 1, N: 2},
		&Register{Name: "w0", Addr: "10.0.0.7:9000", CyclesPerSec: 8 * 20e6},
		&RegisterAck{LeaseMs: 5_000},
		&RegisterAck{Err: "name already registered"},
		&Heartbeat{},
		&Deregister{Reason: "draining"},
		// The same partition resuming on a survivor.
		&OpenPartition{SID: 7, Pipeline: "1", Partition: 1, MaxInFlight: 8, DeadlineMs: 30_000,
			ResumeResults: 12,
			Nodes:         []string{"sobel", "thresh"},
			Edges: []EdgeSpec{
				{ID: 0, Dir: EdgeIn, Credit: 64, FromNode: "blur", FromPort: "out", ToNode: "sobel", ToPort: "in"},
				{ID: 1, Dir: EdgeOut, Credit: 61, FromNode: "thresh", FromPort: "out", ToNode: "sink", ToPort: "in"},
			},
			Resume: []EdgeResume{
				{Edge: 1, SkipItems: 43},
			}},
	}
}

func releaseMsg(m Msg) {
	switch m := m.(type) {
	case *Feed:
		releaseWindows(m.Inputs)
	case *Result:
		for _, out := range m.Outputs {
			for _, w := range out.Wins {
				w.Release()
			}
		}
	case *EdgeFrame:
		releaseItems(m.Items)
		m.Slab.Release()
	}
}

func TestMsgRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs() {
		b := Append(nil, m)
		// Re-decode through the frame layer: length, type, payload.
		got, err := Decode(MsgType(b[4]), b[5:])
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type(), err)
		}
		if !msgEqual(m, got) {
			t.Errorf("%s: round trip changed message:\n  sent %#v\n  got  %#v", m.Type(), m, got)
		}
		releaseMsg(got)
	}
}

// msgEqual compares messages, treating windows by value.
func msgEqual(a, b Msg) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a := a.(type) {
	case *Feed:
		bf := b.(*Feed)
		if a.SID != bf.SID || a.Seq != bf.Seq || len(a.Inputs) != len(bf.Inputs) {
			return false
		}
		for i := range a.Inputs {
			if a.Inputs[i].Name != bf.Inputs[i].Name || !a.Inputs[i].Win.Equal(bf.Inputs[i].Win) {
				return false
			}
		}
		return true
	case *Result:
		br := b.(*Result)
		if a.SID != br.SID || a.Seq != br.Seq || len(a.Outputs) != len(br.Outputs) {
			return false
		}
		for i := range a.Outputs {
			if a.Outputs[i].Name != br.Outputs[i].Name || len(a.Outputs[i].Wins) != len(br.Outputs[i].Wins) {
				return false
			}
			for j := range a.Outputs[i].Wins {
				if !a.Outputs[i].Wins[j].Equal(br.Outputs[i].Wins[j]) {
					return false
				}
			}
		}
		return true
	case *EdgeFrame:
		be := b.(*EdgeFrame)
		if a.SID != be.SID || a.Edge != be.Edge || a.EOS != be.EOS {
			return false
		}
		ai, bi := frameItems(a), frameItems(be)
		defer releaseItems(ai)
		defer releaseItems(bi)
		if len(ai) != len(bi) {
			return false
		}
		for i := range ai {
			if ai[i].IsToken != bi[i].IsToken {
				return false
			}
			if ai[i].IsToken {
				if ai[i].Tok != bi[i].Tok {
					return false
				}
			} else if !ai[i].Win.Equal(bi[i].Win) || ai[i].B != bi[i].B {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a, b)
	}
}

// frameItems returns an edge frame's items, decoding a received one's
// slab; the caller releases them.
func frameItems(m *EdgeFrame) []Item {
	if m.Slab.N == 0 {
		items := append([]Item(nil), m.Items...)
		for _, it := range items {
			if !it.IsToken {
				it.Win.Retain(1)
			}
		}
		return items
	}
	items, err := m.Slab.Items(nil)
	if err != nil {
		panic(err)
	}
	return items
}

func TestConnFraming(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	go func() {
		for _, m := range sampleMsgs() {
			if err := ca.Write(m); err != nil {
				t.Errorf("write %s: %v", m.Type(), err)
				return
			}
		}
	}()
	for _, want := range sampleMsgs() {
		got, err := cb.Read()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !msgEqual(want, got) {
			t.Fatalf("conn delivered %s differently", want.Type())
		}
		releaseMsg(got)
	}
}

// TestConnRejectsBitFlips corrupts every single byte position of an
// encoded frame in turn and requires the reader to reject each one as
// ErrCorrupt. Without the CRC trailer a flipped sample bit would
// decode cleanly into silently wrong data, which the fault-injection
// chaos mode could never distinguish from a real miscomputation.
func TestConnRejectsBitFlips(t *testing.T) {
	// Capture the exact bytes Write emits for one Feed frame.
	client, server := net.Pipe()
	cw := NewConn(client)
	var raw []byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 1<<16)
		n, _ := server.Read(buf)
		raw = append(raw, buf[:n]...)
	}()
	feed := &Feed{SID: 9, Seq: 1, Inputs: []NamedWindow{
		{Name: "in", Win: frame.FromRows([][]float64{{1, 2}, {3, 4}})},
	}}
	if err := cw.Write(feed); err != nil {
		t.Fatalf("write: %v", err)
	}
	<-done
	client.Close()
	server.Close()
	if len(raw) < 9 {
		t.Fatalf("captured only %d bytes", len(raw))
	}

	// The intact frame must read back.
	deliver := func(b []byte) (Msg, error) {
		a, bconn := net.Pipe()
		defer a.Close()
		defer bconn.Close()
		go func() { a.Write(b); a.Close() }()
		return NewConn(bconn).Read()
	}
	if m, err := deliver(raw); err != nil {
		t.Fatalf("intact frame rejected: %v", err)
	} else {
		releaseMsg(m)
	}

	// Flip one bit in every byte past the length prefix: type, payload,
	// and the trailer itself must all be covered.
	for i := 4; i < len(raw); i++ {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x10
		m, err := deliver(mut)
		if err == nil {
			releaseMsg(m)
			t.Fatalf("bit flip at offset %d decoded cleanly", i)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at offset %d returned untyped error %v", i, err)
		}
	}
}

func TestHandshake(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	errc := make(chan error, 1)
	go func() { errc <- cb.AcceptHandshake("w0", []string{"1", "2"}) }()
	w, err := ca.Handshake()
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	if w.Worker != "w0" || len(w.Pipelines) != 2 {
		t.Fatalf("welcome carried %+v", w)
	}
}

func TestDecodeUnknownType(t *testing.T) {
	if _, err := Decode(MsgType(200), nil); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown type decoded: %v", err)
	}
}

// TestWriteRejectsOverflowingCounts checks a message whose element count
// cannot fit its u16 wire field fails its own Write — a silent
// truncation would corrupt the stream and kill the connection — and
// that the connection stays usable afterwards.
func TestWriteRejectsOverflowingCounts(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	feed := &Feed{SID: 1, Inputs: make([]NamedWindow, 1<<16)}
	if err := ca.Write(feed); err == nil {
		t.Fatal("write accepted a feed with 65536 inputs")
	}
	res := &Result{SID: 1, Outputs: make([]NamedWindows, 1<<16)}
	if err := ca.Write(res); err == nil {
		t.Fatal("write accepted a result with 65536 outputs")
	}

	// Nothing hit the wire, so the next frame must still round-trip.
	go func() { ca.Write(&Ping{Nonce: 5}) }()
	m, err := cb.Read()
	if err != nil {
		t.Fatalf("read after rejected writes: %v", err)
	}
	if p, ok := m.(*Ping); !ok || p.Nonce != 5 {
		t.Fatalf("connection delivered %#v after rejected writes", m)
	}
}

// TestWriteRejectsOverflowingEdgeCounts mirrors
// TestWriteRejectsOverflowingCounts for the partition-plane frames: an
// EdgeFrame item batch or OpenPartition catalogue past the u16 count
// must fail its own Write without poisoning the connection.
func TestWriteRejectsOverflowingEdgeCounts(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	ef := &EdgeFrame{SID: 1, Edge: 0, Items: make([]Item, 1<<16)}
	if err := ca.Write(ef); err == nil {
		t.Fatal("write accepted an edge frame with 65536 items")
	}
	op := &OpenPartition{SID: 1, Pipeline: "1", Nodes: make([]string, 1<<16)}
	if err := ca.Write(op); err == nil {
		t.Fatal("write accepted an open-partition with 65536 nodes")
	}
	op = &OpenPartition{SID: 1, Pipeline: "1", Edges: make([]EdgeSpec, 1<<16)}
	if err := ca.Write(op); err == nil {
		t.Fatal("write accepted an open-partition with 65536 edges")
	}

	go func() { ca.Write(&Ping{Nonce: 6}) }()
	m, err := cb.Read()
	if err != nil {
		t.Fatalf("read after rejected writes: %v", err)
	}
	if p, ok := m.(*Ping); !ok || p.Nonce != 6 {
		t.Fatalf("connection delivered %#v after rejected writes", m)
	}
}

// TestEdgeFrameDecodeRejectsCorruption truncates and mutates an
// encoded EdgeFrame and requires typed decode errors with no leaked
// arena windows.
func TestEdgeFrameDecodeRejectsCorruption(t *testing.T) {
	base := frame.Stats().Live
	ef := &EdgeFrame{SID: 3, Edge: 2, Items: []Item{
		{Win: frame.FromRows([][]float64{{1, 2}, {3, 4}})},
		{IsToken: true, Tok: token.EOF(1)},
	}}
	good := Append(nil, ef)
	payload := good[5:]

	for name, b := range map[string][]byte{
		"empty":          {},
		"truncated head": payload[:8],
		"truncated item": payload[:len(payload)-5],
		"trailing":       append(append([]byte{}, payload...), 0xee),
	} {
		if m, err := Decode(TypeEdgeFrame, b); err == nil {
			releaseMsg(m)
			t.Errorf("%s: decode accepted corrupt edge frame", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v is not tagged ErrCorrupt", name, err)
		}
	}
	// A flags byte past the defined bits is corruption, not an item.
	bad := append([]byte(nil), payload...)
	bad[12] = 0x7f
	if m, err := Decode(TypeEdgeFrame, bad); err == nil {
		releaseMsg(m)
		t.Error("decode accepted an edge frame with unknown flags")
	}
	// A malformed item header deep in an otherwise sound frame: the
	// header walk refuses it like the full decoder would.
	for name, at := range map[string]struct {
		off int
		val byte
	}{
		"item tag":    {15, 9},
		"window kind": {15 + 1 + 8, 0x7f},
		"token kind":  {15 + 1 + 9 + 32 + 1, 0x7f},
	} {
		bad := append([]byte(nil), payload...)
		bad[at.off] = at.val
		if m, err := Decode(TypeEdgeFrame, bad); err == nil {
			releaseMsg(m)
			t.Errorf("%s: decode accepted a corrupt item header", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v is not tagged ErrCorrupt", name, err)
		}
	}
	if live := frame.Stats().Live; live != base {
		t.Fatalf("corrupt edge-frame decodes leaked %d arena windows", live-base)
	}
}

// TestEdgeFrameSlabRelaysVerbatim: reading an EdgeFrame materialises no
// window — one arena get, the slab — and counts its items and sample
// bytes; written again with a new SID and the EOS flag cleared, it is
// the sent frame byte for byte behind the patched header, and its slab
// decodes to the sent items.
func TestEdgeFrameSlabRelaysVerbatim(t *testing.T) {
	sent := &EdgeFrame{SID: 3, Edge: 2, EOS: true, Items: []Item{
		{Win: typedTestWindow(frame.U8, 4, 3)},
		{IsToken: true, Tok: token.EOL(0)},
		{Win: frame.FromRows([][]float64{{1, 2, 3, 4, 5, 6, 7}}), B: Batch{N: 3, Sx: 2, Bw: 3}},
		{Win: typedTestWindow(frame.F32, 2, 2)},
	}}
	before := frame.Stats()
	m, err := Decode(TypeEdgeFrame, Append(nil, sent)[5:])
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*EdgeFrame)
	if gets := frame.Stats().Gets - before.Gets; gets != 1 {
		t.Errorf("reading the frame took %d arena buffers, want 1 (the slab)", gets)
	}
	if got.Items != nil || got.Slab.N != 4 || got.Slab.SampleBytes != 12+7*8+4*4 || !got.EOS {
		t.Errorf("received frame: %d items decoded, slab of %d items and %d sample bytes, eos %v; want 0, 4, 88, true",
			len(got.Items), got.Slab.N, got.Slab.SampleBytes, got.EOS)
	}
	got.SID, got.EOS = 9, false
	relayed := Append(nil, got)
	want := Append(nil, &EdgeFrame{SID: 9, Edge: 2, Items: sent.Items})
	if !bytes.Equal(relayed, want) {
		t.Errorf("the relayed frame is not the sent one behind a patched header:\n got  %x\n want %x", relayed, want)
	}
	if !msgEqual(&EdgeFrame{SID: 9, Edge: 2, Items: sent.Items}, got) {
		t.Error("the slab decodes to different items")
	}
	got.Release()
	if live := frame.Stats().Live - before.Live; live != 0 {
		t.Errorf("%d arena buffers live after the frame was released", live)
	}
}

// TestOpenPartitionDecodeRejectsMalformedResume: the resume watermarks
// are peer input like everything else — a negative result watermark, or
// a skip mark naming an edge the partition does not produce, is
// corruption, not something for the worker to guess at.
func TestOpenPartitionDecodeRejectsMalformedResume(t *testing.T) {
	edges := []EdgeSpec{
		{ID: 0, Dir: EdgeIn, Credit: 64, FromNode: "blur", FromPort: "out", ToNode: "sobel", ToPort: "in"},
		{ID: 1, Dir: EdgeOut, Credit: 64, FromNode: "thresh", FromPort: "out", ToNode: "sink", ToPort: "in"},
	}
	for name, m := range map[string]*OpenPartition{
		"negative result watermark": {SID: 7, Pipeline: "1", MaxInFlight: 8, ResumeResults: -1},
		"mark for an inbound edge":  {SID: 7, Pipeline: "1", MaxInFlight: 8, Edges: edges, Resume: []EdgeResume{{Edge: 0, SkipItems: 3}}},
		"mark for an unknown edge":  {SID: 7, Pipeline: "1", MaxInFlight: 8, Edges: edges, Resume: []EdgeResume{{Edge: 9, SkipItems: 3}}},
		"mark on a whole session":   {SID: 7, Pipeline: "1", MaxInFlight: 8, Resume: []EdgeResume{{Edge: 0}}},
	} {
		b := Append(nil, m)
		if _, err := Decode(MsgType(b[4]), b[5:]); err == nil {
			t.Errorf("%s: decode accepted it", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v is not tagged ErrCorrupt", name, err)
		}
	}
}

// typedTestWindow builds a kind-typed window with a deterministic ramp.
func typedTestWindow(k frame.Kind, w, h int) frame.Window {
	win := frame.NewWindowKind(k, w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			win.Set(x, y, float64((y*w+x)%251))
		}
	}
	return win
}

func TestWindowTypedRoundTrip(t *testing.T) {
	for _, k := range []frame.Kind{frame.U8, frame.F32, frame.F64} {
		w := typedTestWindow(k, 5, 3)
		b := AppendWindow(nil, w)
		// Native width on the wire: header (u32 W, u32 H, u8 kind) plus
		// one sample per element at the kind's storage width.
		if want := 9 + 5*3*k.Bytes(); len(b) != want {
			t.Errorf("%s window encodes to %d bytes, want %d", k, len(b), want)
		}
		got, err := DecodeWindow(b)
		if err != nil {
			t.Fatalf("decode %s window: %v", k, err)
		}
		if got.Kind != k {
			t.Errorf("decoded kind %s, want %s", got.Kind, k)
		}
		if !got.Equal(w) {
			t.Errorf("%s round trip changed samples", k)
		}
		got.Release()

		// A strided typed view encodes identically to its dense clone.
		view := w.View(1, 1, 3, 2)
		dense := view.Clone()
		if vb, db := AppendWindow(nil, view), AppendWindow(nil, dense); string(vb) != string(db) {
			t.Errorf("%s strided view encodes differently from dense copy", k)
		}
		dense.Release()
	}
}

func TestWindowDecodeRejectsMalformedKind(t *testing.T) {
	good := AppendWindow(nil, typedTestWindow(frame.U8, 2, 2))
	for kind := byte(3); kind != 0; kind += 61 {
		bad := append([]byte{}, good...)
		bad[8] = kind
		if _, err := DecodeWindow(bad); err == nil {
			t.Fatalf("decode accepted element kind %d", kind)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("kind %d: error %v is not tagged ErrCorrupt", kind, err)
		}
	}
}

// BenchmarkDecodeWindow prices decodeWindow on a frame-sized window of
// each kind (48×32, app 4's input): after the one length check the rows
// are converted in bulk, so decode should cost about what encode does.
func BenchmarkDecodeWindow(b *testing.B) {
	for _, k := range []frame.Kind{frame.F64, frame.F32, frame.U8} {
		enc := AppendWindow(nil, typedTestWindow(k, 48, 32))
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				w, err := DecodeWindow(enc)
				if err != nil {
					b.Fatal(err)
				}
				w.Release()
			}
		})
	}
}
