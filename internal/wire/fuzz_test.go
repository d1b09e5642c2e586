package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"blockpar/internal/frame"
)

// FuzzWire throws arbitrary bytes at the frame decoder: any input must
// either decode cleanly or error — never panic, never allocate outside
// the codec's bounds — and a successful decode must re-encode to a
// byte-identical frame (the codec is canonical). An accepted EdgeFrame
// must also agree with the full item decoder (checkHeaderWalk). Seeds
// cover every message type plus standalone windows, tokens, and items.
func FuzzWire(f *testing.F) {
	for _, m := range sampleMsgs() {
		b := Append(nil, m)
		f.Add(b[4:]) // type byte + payload
	}
	f.Add(AppendWindow([]byte{0}, frame.FromRows([][]float64{{1, 2}, {3, 4}})))
	// One window seed per element kind, so the native-width sample
	// paths (u8 raw bytes, f32 bit patterns) are all in the corpus.
	for _, k := range []frame.Kind{frame.U8, frame.F32, frame.F64} {
		f.Add(AppendWindow([]byte{0}, typedTestWindow(k, 3, 2)))
	}
	// A malformed element-kind tag on an otherwise well-formed window.
	bad := AppendWindow([]byte{0}, typedTestWindow(frame.U8, 2, 2))
	bad[9] = 0x7f
	f.Add(bad)
	// A resume mark naming an edge the partition does not produce.
	f.Add(Append(nil, &OpenPartition{SID: 7, Pipeline: "1", MaxInFlight: 8,
		Resume: []EdgeResume{{Edge: 3, SkipItems: 1}}})[4:])
	// Two frames of different sizes back to back, as a connection sees
	// them: the second is decoded out of the buffer the first grew.
	f.Add(onWire(f,
		&Feed{SID: 7, Seq: 3, Inputs: []NamedWindow{{Name: "in", Win: typedTestWindow(frame.F64, 8, 8)}}},
		&EdgeFrame{SID: 7, Edge: 1, Items: []Item{{Win: typedTestWindow(frame.U8, 3, 1)}}}))
	f.Add([]byte{})
	f.Add([]byte{byte(TypeFeed)})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// A v9 heartbeat (sessions, load, drain flag): v10's is empty, so
	// the payload is trailing bytes.
	f.Add(append([]byte{byte(TypeHeartbeat)}, make([]byte, 4+8+1)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Corrupt decodes must release every pooled window they
		// allocated; track the arena's live gauge across the call.
		liveBefore := frame.Stats().Live
		if len(data) == 0 {
			return
		}
		readStream(t, data)
		if live := frame.Stats().Live; live != liveBefore {
			t.Fatalf("reading the bytes as a stream leaked %d pooled windows", live-liveBefore)
		}
		// Decode from a scratch copy and then overwrite it, as the next
		// frame overwrites a connection's read buffer: a message that
		// aliased its input re-encodes differently below.
		scratch := append([]byte(nil), data...)
		m, err := Decode(MsgType(scratch[0]), scratch[1:])
		for i := range scratch {
			scratch[i] = ^scratch[i]
		}
		if err != nil {
			if live := frame.Stats().Live; live != liveBefore {
				t.Fatalf("failed decode leaked %d pooled windows", live-liveBefore)
			}
			return
		}
		if ef, ok := m.(*EdgeFrame); ok {
			checkHeaderWalk(t, ef, data[1:])
		}
		// Canonical round trip: re-encoding the decoded message must
		// reproduce the input frame exactly.
		re := Append(nil, m)
		if MsgType(re[4]) != MsgType(data[0]) || !bytes.Equal(re[5:], data[1:]) {
			t.Fatalf("decode(%s) re-encoded differently:\n in  %x\n out %x",
				MsgType(data[0]), data[1:], re[5:])
		}
		releaseMsg(m)

		// The standalone codecs must be equally hardened.
		if w, err := DecodeWindow(data); err == nil {
			w.Release()
		}
		_, _ = DecodeToken(data)
		if it, err := DecodeItem(data); err == nil && !it.IsToken {
			it.Win.Release()
		}
	})
}

// readStream reads data through a connection as [u32 length | frame]*,
// up to the first length prefix the input cannot back (so the harness
// never buys a 256 MiB read buffer). Frames may be corrupt — the reads
// must then fail cleanly — and a message decoded from one frame must
// not change when the next is read into the connection's buffer.
func readStream(t *testing.T, data []byte) {
	end := 0
	for end+4 <= len(data) {
		n := int(binary.BigEndian.Uint32(data[end:]))
		if n > len(data)-end-4 {
			break
		}
		end += 4 + n
	}
	c := NewConn(&scriptConn{in: bytes.NewReader(data[:end])})
	var prev Msg
	var prevWire []byte
	for {
		m, err := c.Read()
		if prev != nil {
			if !bytes.Equal(Append(nil, prev), prevWire) {
				t.Fatalf("%s changed when the next frame was read", prev.Type())
			}
			releaseMsg(prev)
		}
		if err != nil {
			return
		}
		prev, prevWire = m, Append(nil, m)
	}
}

// checkHeaderWalk holds an accepted EdgeFrame's header walk to the full
// item decoder run over the same payload: the walk's item count, EOS
// flag and sample bytes are the decoder's, and the slab decodes to the
// same items.
func checkHeaderWalk(t *testing.T, ef *EdgeFrame, payload []byte) {
	t.Helper()
	r := &reader{b: payload}
	r.u64("sid")
	r.u32("edge")
	eos := r.u8("flags") == 1
	n := int(r.u16("count"))
	var items []Item
	var sz int64
	for i := 0; i < n && r.err == nil; i++ {
		it := decodeItem(r)
		items = append(items, it)
		if !it.IsToken {
			sz += int64(it.Win.W) * int64(it.Win.H) * int64(it.Win.Kind.Bytes())
		}
	}
	defer releaseItems(items)
	if err := r.finish(); err != nil {
		t.Fatalf("the header walk accepted an edge frame the full decoder refuses: %v", err)
	}
	if ef.Slab.N != n || ef.EOS != eos || ef.Slab.SampleBytes != sz {
		t.Fatalf("header walk: %d items, eos %v, %d sample bytes; full decoder: %d, %v, %d",
			ef.Slab.N, ef.EOS, ef.Slab.SampleBytes, n, eos, sz)
	}
	got, err := ef.Slab.Items(nil)
	if err != nil {
		t.Fatalf("an accepted slab does not decode: %v", err)
	}
	defer releaseItems(got)
	if len(got) != len(items) {
		t.Fatalf("slab decodes to %d items, payload to %d", len(got), len(items))
	}
	for i := range got {
		a, b := got[i], items[i]
		if a.IsToken != b.IsToken || a.Tok != b.Tok || a.B != b.B || (!a.IsToken && !a.Win.Equal(b.Win)) {
			t.Fatalf("item %d: slab decodes to %+v, payload to %+v", i, a, b)
		}
	}
}
