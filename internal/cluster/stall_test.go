package cluster

import (
	"encoding/binary"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/frame"
	"blockpar/internal/wire"
)

// tapConn shows one direction of a wire connection to tap, frame by
// frame, before it reaches the peer: tap may sleep to delay the frame,
// or return true to discard it while reporting the write as successful —
// a message lost on an otherwise-healthy connection, which no health
// check can see. wire.Conn hands the stream a whole number of frames per
// write (several, when senders coalesce), each [u32 length | u8 type |
// payload | crc] with, on session frames, the SID first in the payload.
type tapConn struct {
	net.Conn
	tap func(typ wire.MsgType, sid uint64) (drop bool)
}

func (c *tapConn) Write(b []byte) (int, error) {
	// Forward frame by frame, so a tap that sleeps on one frame holds
	// back only it and what follows.
	for off := 0; off+4 <= len(b); {
		end := off + 4 + int(binary.BigEndian.Uint32(b[off:]))
		if end > len(b) {
			end = len(b)
		}
		f := b[off:end]
		off = end
		if len(f) >= 13 && c.tap(wire.MsgType(f[4]), binary.BigEndian.Uint64(f[5:13])) {
			continue
		}
		if _, err := c.Conn.Write(f); err != nil {
			return 0, err
		}
	}
	return len(b), nil
}

// tapListener taps the worker→frontend direction of every connection
// it accepts.
type tapListener struct {
	net.Listener
	tap func(typ wire.MsgType, sid uint64) (drop bool)
}

func (l tapListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: nc, tap: l.tap}, nil
}

// resultGate is a tap that, once held, keeps every Result a worker
// writes from reaching the frontend until release: a test that kills a
// worker "mid-stream" holds the gate first, so the fed frame is provably
// still owed when the worker dies however fast the data path is.
type resultGate struct {
	held atomic.Bool
	open chan struct{}
}

func newResultGate() *resultGate { return &resultGate{open: make(chan struct{})} }

func (g *resultGate) tap(typ wire.MsgType, _ uint64) bool {
	if typ == wire.TypeResult && g.held.Load() {
		<-g.open
	}
	return false
}

func (g *resultGate) hold()    { g.held.Store(true) }
func (g *resultGate) release() { close(g.open) }

// deafLink discards every frontend→worker frame of one type addressed
// to one worker-side instance (by SID). Other traffic, pings included,
// passes.
type deafLink struct {
	typ     atomic.Uint32 // wire.MsgType to drop; 0 = pass everything
	sid     atomic.Uint64
	dropped atomic.Int64
}

func (l *deafLink) dial(addr string) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: nc, tap: func(typ wire.MsgType, sid uint64) bool {
		if uint32(typ) != l.typ.Load() || sid != l.sid.Load() {
			return false
		}
		l.dropped.Add(1)
		return true
	}}, nil
}

// TestPartitionedStallRecovers pins the session's single stall
// watchdog: a Feed or a cut edge's EdgeFrames silently lost on the way
// to one partition leave frames in flight with no worker making
// progress, and within StallTimeout the watchdog re-homes the quiet
// partition and the replay re-delivers what was lost — the client sees
// a byte-identical stream, not a hang until CloseTimeout. The same loss
// under a whole session (Partitions 0) is the one-partition case.
func TestPartitionedStallRecovers(t *testing.T) {
	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	const frames = 6
	want := batchFrames(t, app, frames)
	for _, tc := range []struct {
		name       string
		partitions int
		lose       wire.MsgType
	}{
		{"whole/feed", 0, wire.TypeFeed},
		{"split/feed", 3, wire.TypeFeed},
		{"split/edge-frame", 3, wire.TypeEdgeFrame},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frontend := suiteRegistry(t, "5")
			p, _ := frontend.Get("5")
			link := &deafLink{}
			opts := fastOpts()
			opts.Dial = link.dial
			opts.StallTimeout = 300 * time.Millisecond
			d, _, stop := partitionedFleetN(t, 3, tc.partitions, opts)
			defer stop()

			base := frame.Stats().Live
			h, err := openN(d, p, 4)
			if err != nil {
				t.Fatal(err)
			}
			ps := sessionOf(d, h)
			if n := len(ps.plan.Partitions); tc.partitions > 0 && n != tc.partitions {
				t.Fatalf("placement produced %d partitions, want %d", n, tc.partitions)
			}
			for f := 0; f < 2; f++ {
				feedRetry(t, h, nil)
				collectCompare(t, h, int64(f), want)
			}

			// Deafen one partition: the input owner for a lost Feed, the
			// consumer of cut edge 0 for lost EdgeFrames.
			target := ps.feedParts[0]
			if tc.lose == wire.TypeEdgeFrame {
				target = ps.plan.Cuts[0].To
			}
			ps.mu.Lock()
			link.sid.Store(ps.halves[target].sid)
			ps.mu.Unlock()
			link.typ.Store(uint32(tc.lose))

			start := time.Now()
			feedRetry(t, h, nil)
			collectCompare(t, h, 2, want)
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Errorf("stalled frame took %v to recover; StallTimeout is %v", elapsed, opts.StallTimeout)
			}
			if link.dropped.Load() == 0 {
				t.Fatal("no frame was dropped; the stall went unexercised")
			}
			// The counter ticks when the recovery routine returns, which the
			// replayed frame's result can beat to the client.
			waitCondition(t, "failover counter to tick", func() bool {
				return dispatcherCounter(d, "sessions_failed_over")+dispatcherCounter(d, "partitions_failed_over") >= 1
			})
			for f := 3; f < frames; f++ {
				feedRetry(t, h, nil)
				collectCompare(t, h, int64(f), want)
			}
			if err := h.Close(); err != nil {
				t.Fatalf("close after stall recovery: %v", err)
			}
			waitCondition(t, "arena references to return to baseline", func() bool {
				return frame.Stats().Live <= base
			})
		})
	}
}
