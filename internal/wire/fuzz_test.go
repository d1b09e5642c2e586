package wire

import (
	"bytes"
	"testing"

	"blockpar/internal/frame"
)

// FuzzWire throws arbitrary bytes at the frame decoder: any input must
// either decode cleanly or error — never panic, never allocate outside
// the codec's bounds — and a successful decode must re-encode to a
// byte-identical frame (the codec is canonical). Seeds cover every
// message type plus standalone windows, tokens, and items.
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
	f.Add([]byte{})
	f.Add([]byte{byte(TypeFeed)})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Corrupt decodes must release every pooled window they
		// allocated; track the arena's live gauge across the call.
		liveBefore := frame.Stats().Live
		if len(data) == 0 {
			return
		}
		m, err := Decode(MsgType(data[0]), data[1:])
		if err != nil {
			if live := frame.Stats().Live; live != liveBefore {
				t.Fatalf("failed decode leaked %d pooled windows", live-liveBefore)
			}
			return
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
