package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/frame"
	"blockpar/internal/wire"
)

// captureConn is a net.Conn that records every byte written to it.
type captureConn struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}
func (c *captureConn) Close() error { return nil }

// frames reads what was written so far as a stream of edge frames,
// each as a connection receives it: its items kept in a slab, which
// re-encodes verbatim to what crossed the wire.
func (c *captureConn) frames(t *testing.T) []*wire.EdgeFrame {
	t.Helper()
	c.mu.Lock()
	stream := append([]byte(nil), c.buf.Bytes()...)
	c.mu.Unlock()
	rd := wire.NewConn(&bufConn{r: bytes.NewReader(stream)})
	var out []*wire.EdgeFrame
	for {
		m, err := rd.Read()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		ef, ok := m.(*wire.EdgeFrame)
		if !ok {
			t.Fatalf("captured a %s, want only edge frames", m.Type())
		}
		out = append(out, ef)
	}
}

// payload is a frame's encoded payload, type byte excluded.
func payload(m wire.Msg) []byte { return wire.Append(nil, m)[5:] }

// numberedFrame is an edge frame of n pooled 2×3 windows whose samples
// encode (k, item), so every frame's bytes differ.
func numberedFrame(sid uint64, k, n int) *wire.EdgeFrame {
	ef := &wire.EdgeFrame{SID: sid, Edge: 0}
	for i := 0; i < n; i++ {
		w := frame.AllocKind(frame.F64, 2, 3)
		w.Set(0, 0, float64(k))
		w.Set(1, 2, float64(i))
		ef.Items = append(ef.Items, wire.Item{Win: w})
	}
	return ef
}

// TestEdgeReplaySendsLoggedFramesVerbatim: a re-placed consumer is
// replayed the frames its producer sent, whole and byte for byte as
// they were received, retargeted to the new instance's SID and paced
// by its credit returns; the producer's end-of-stream, already relayed
// on the last logged frame, is cleared there and re-sent once, after
// the log.
func TestEdgeReplaySendsLoggedFramesVerbatim(t *testing.T) {
	base := frame.Stats().Live
	ps, from := relaySession(1 << 40)
	ps.plan.Cuts[0].Credit = 64
	to := ps.halves[1]
	go to.relay()
	const frames = 30
	var want [][]byte
	for k := 1; k <= frames; k++ {
		ef := numberedFrame(from.sid, k, k) // 465 items in all: the replay must wait for credits
		ef.EOS = k == frames
		want = append(want, payload(&wire.EdgeFrame{SID: 99, Edge: 0, Items: ef.Items}))
		from.edgeFrame(received(t, ef))
	}
	ps.mu.Lock()
	es := &ps.cuts[0]
	if len(es.log) != frames || es.logItems != frames*(frames+1)/2 || !es.eosLogged {
		t.Fatalf("log holds %d frames of %d items (eos %v), want %d of %d and eos",
			len(es.log), es.logItems, es.eosLogged, frames, frames*(frames+1)/2)
	}
	// The consumer dies: reopenOn's edge snapshot, then a fresh instance.
	es.buffering, es.swallow, es.eosSent = true, es.acked, false
	capture := &captureConn{}
	h2 := testHalf(ps, 1, 99, capture)
	ps.halves[1] = h2
	ps.mu.Unlock()
	to.stopRelay()

	// The new consumer acknowledges everything it was sent, a batch at
	// a time; the replay must never run ahead of the window.
	done := make(chan error, 1)
	go func() { done <- ps.replayEdge(h2, 0, time.Now().Add(10*time.Second)) }()
	var err error
	for waiting := true; waiting; {
		select {
		case err = <-done:
			waiting = false
		case <-time.After(time.Millisecond):
			ps.mu.Lock()
			if es.sent > 64+es.rawAcks {
				t.Errorf("replay sent %d items against %d acks and a 64-item window", es.sent, es.rawAcks)
			}
			es.rawAcks = es.sent
			ps.mu.Unlock()
		}
	}
	if err != nil {
		t.Fatal(err)
	}

	got := capture.frames(t)
	if len(got) != frames+1 {
		t.Fatalf("replay wrote %d frames, want the %d logged and one end-of-stream", len(got), frames)
	}
	for k, m := range got[:frames] {
		if !bytes.Equal(payload(m), want[k]) {
			t.Errorf("replayed frame %d differs from the frame the producer sent", k)
		}
		m.Release()
	}
	if eos := got[frames]; !eos.EOS || eos.Slab.N != 0 || eos.SID != 99 {
		t.Errorf("replay ended with %+v, want a bare end-of-stream to SID 99", eos)
	}
	ps.mu.Lock()
	if es.buffering || es.sent != es.logItems {
		t.Errorf("after the replay: buffering %v, sent %d of %d logged items", es.buffering, es.sent, es.logItems)
	}
	ps.mu.Unlock()
	ps.terminate(nil, false)
	if live := frame.Stats().Live - base; live != 0 {
		t.Errorf("%d arena buffers still live after the session ended", live)
	}
}

// TestRelayClearsRepeatedEOS: once the consumer has heard end-of-stream,
// a re-placed producer's tail that carries it again is relayed with the
// flag byte cleared and its items untouched, and a bare repeat is not
// relayed at all.
func TestRelayClearsRepeatedEOS(t *testing.T) {
	base := frame.Stats().Live
	ps, from := relaySession(1 << 40)
	capture := &captureConn{}
	to := testHalf(ps, 1, 11, capture)
	ps.halves[1] = to
	go to.relay()

	first := numberedFrame(from.sid, 1, 3)
	first.EOS = true
	wantFirst := payload(&wire.EdgeFrame{SID: to.sid, EOS: true, Items: first.Items})
	from.edgeFrame(received(t, first))

	// The producer is re-placed and ships its tail again, end-of-stream
	// included.
	from2 := testHalf(ps, 0, 12, &sinkConn{})
	ps.mu.Lock()
	ps.halves[0] = from2
	ps.mu.Unlock()
	tail := numberedFrame(from2.sid, 2, 2)
	tail.EOS = true
	wantTail := payload(&wire.EdgeFrame{SID: to.sid, Items: tail.Items})
	from2.edgeFrame(received(t, tail))
	from2.edgeFrame(received(t, &wire.EdgeFrame{SID: from2.sid, EOS: true}))

	waitCondition(t, "both frames relayed", func() bool {
		capture.mu.Lock()
		defer capture.mu.Unlock()
		return capture.buf.Len() >= len(wantFirst)+len(wantTail)+2*(4+1+4)
	})
	time.Sleep(10 * time.Millisecond) // room for a wrongly relayed third frame
	got := capture.frames(t)
	if len(got) != 2 {
		t.Fatalf("relayed %d frames, want 2 (the bare repeat dropped)", len(got))
	}
	if !bytes.Equal(payload(got[0]), wantFirst) {
		t.Error("the first end-of-stream frame was not relayed as sent")
	}
	if got[1].EOS || !bytes.Equal(payload(got[1]), wantTail) {
		t.Errorf("the repeated tail was relayed with eos %v; want it cleared and the items as sent", got[1].EOS)
	}
	for _, m := range got {
		m.Release()
	}
	ps.mu.Lock()
	if es := ps.cuts[0]; !es.eosSent || es.sent != 5 || es.logItems != 5 {
		t.Errorf("edge state %+v, want eos sent and 5 items sent and logged", es)
	}
	ps.mu.Unlock()
	ps.terminate(nil, false)
	if live := frame.Stats().Live - base; live != 0 {
		t.Errorf("%d arena buffers still live after the session ended", live)
	}
}

// TestRelayRefusesCorruptItemHeader: the frontend relays a frame without
// decoding its items, but still validates every item header on the
// read, so a frame whose CRC is sound and whose item header is not is
// refused with ErrCorrupt — nothing relayed, nothing logged, nothing
// left in the arena.
func TestRelayRefusesCorruptItemHeader(t *testing.T) {
	good := wireStream(t, appFourFrame(3))
	// Stream offsets: u32 length, u8 type, then sid, edge, flags and the
	// item count (15 bytes); the first item's tag, its batch (n, sx,
	// bw), then its window (w, h, kind).
	const item = 4 + 1 + 15
	for _, tc := range []struct {
		name string
		off  int
		val  []byte
		want string
	}{
		{"item tag", item, []byte{7}, "unknown item tag"},
		{"batch width", item + 1 + 8, []byte{0, 0, 0, 6}, "needs a 49-wide window"},
		{"window kind", item + 13 + 8, []byte{9}, "unknown element kind"},
		{"window height", item + 13 + 4, []byte{0, 0, 1, 0}, "truncated window samples"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), good...)
			copy(bad[tc.off:], tc.val)
			n := len(bad)
			binary.BigEndian.PutUint32(bad[n-4:], crc32.Checksum(bad[4:n-4], crc32.MakeTable(crc32.Castagnoli)))

			base := frame.Stats().Live
			ps, from := relaySession(1 << 40)
			w := &workerRef{sessions: map[uint64]*partitionHalf{1: from}}
			from.sid = 1
			err := w.readLoop(wire.NewConn(&bufConn{r: bytes.NewReader(bad)}))
			if !errors.Is(err, wire.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("read loop ended with %v, want ErrCorrupt naming %q", err, tc.want)
			}
			ps.mu.Lock()
			frames, logged := ps.relayFrames, len(ps.cuts[0].log)
			ps.mu.Unlock()
			if frames != 0 || logged != 0 {
				t.Errorf("the corrupt frame was relayed (%d) or logged (%d)", frames, logged)
			}
			if live := frame.Stats().Live - base; live != 0 {
				t.Errorf("%d arena buffers live after the refused frame", live)
			}
		})
	}
}

// TestReplayLogOverflowVisible: a session whose log outgrows the replay
// budget says so, once — replay_lost in its /metrics row and one
// warning naming the pipeline, its SIDs, the frames fed and the budget.
func TestReplayLogOverflowVisible(t *testing.T) {
	var logs bytes.Buffer
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(slog.NewTextHandler(&logs, nil)))

	const budget = 100_000 // two of these frames' 49,920 sample bytes
	ps, from := relaySession(budget)
	go ps.halves[1].relay()
	for k := 0; k < 5; k++ {
		if k == 2 && ps.row().ReplayLost {
			t.Fatal("replay_lost set while the log is within budget")
		}
		ef := appFourFrame(26)
		ef.SID = from.sid
		from.edgeFrame(received(t, ef))
	}
	row := ps.row()
	if !row.ReplayLost || row.ReplayBytes != 0 {
		t.Errorf("session row %+v: want replay_lost and an empty log", row)
	}
	out := logs.String()
	if n := strings.Count(out, "replay log over budget"); n != 1 {
		t.Fatalf("%d overflow warnings, want 1:\n%s", n, out)
	}
	for _, field := range []string{"level=WARN", "pipeline=test", "sids=\"[10 11]\"", "fed=0", "budget=100000"} {
		if !strings.Contains(out, field) {
			t.Errorf("warning %q lacks %s", out, field)
		}
	}
	ps.terminate(nil, false)
}

// TestPartitionedConsumerKillReplaysLog kills the worker of a partition
// that consumes cut edges, mid-stream, on app 4 split three ways — the
// cluster_part3 shape. The survivor is replayed the logged frames of
// every edge into it, and every frame the client collects stays
// byte-identical to the unkilled batch run.
func TestPartitionedConsumerKillReplaysLog(t *testing.T) {
	app, err := apps.ByID("4")
	if err != nil {
		t.Fatal(err)
	}
	const frames = 6
	want := batchFrames(t, app, frames)
	frontend := suiteRegistry(t, "4")
	p, _ := frontend.Get("4")
	d, workers, stop := partitionedFleetN(t, 4, 3, fastOpts())
	defer stop()

	base := frame.Stats().Live
	h, err := openN(d, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	ps := splitSession(t, d, h)
	victim := ps.plan.Cuts[0].To
	var inEdges []int
	for i, c := range ps.plan.Cuts {
		if c.To == victim {
			inEdges = append(inEdges, i)
		}
	}
	for f := 0; f < 2; f++ {
		feedRetry(t, h, nil)
		collectCompare(t, h, int64(f), want)
	}
	ps.mu.Lock()
	victimHalf := ps.halves[victim]
	logged := make(map[int]int)
	for _, i := range inEdges {
		logged[i] = len(ps.cuts[i].log)
		if logged[i] == 0 {
			t.Errorf("cut %d into partition %d logged no frames", i, victim)
		}
	}
	ps.mu.Unlock()
	feedRetry(t, h, nil)
	partitionWorker(t, workers, victimHalf).Close()

	collectCompare(t, h, 2, want)
	for f := 3; f < frames; f++ {
		feedRetry(t, h, nil)
		collectCompare(t, h, int64(f), want)
	}
	waitCondition(t, "failover counter to tick", func() bool {
		return dispatcherCounter(d, "partitions_failed_over") >= 1
	})
	ps.mu.Lock()
	for _, i := range inEdges {
		if es := ps.cuts[i]; es.sent != es.logItems || len(es.log) < logged[i] {
			t.Errorf("cut %d: %d of %d logged items delivered to the new consumer, log %d frames (was %d)",
				i, es.sent, es.logItems, len(es.log), logged[i])
		}
	}
	ps.mu.Unlock()
	if err := h.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}
	waitCondition(t, "arena references to return to baseline", func() bool {
		return frame.Stats().Live <= base
	})
}
