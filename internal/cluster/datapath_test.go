package cluster

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blockpar/internal/fifo"
	"blockpar/internal/frame"
	"blockpar/internal/graph"
	"blockpar/internal/placement"
	"blockpar/internal/serve"
	"blockpar/internal/token"
	"blockpar/internal/wire"
)

// ---- cut edges on the ring ----

// sinkConn is a net.Conn that swallows writes and counts them.
type sinkConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *sinkConn) Write(p []byte) (int, error) { c.writes.Add(1); return len(p), nil }
func (c *sinkConn) Close() error                { return nil }

// edgeSession is just enough workerSession for an edge to send on.
func edgeSession() (*workerSession, *sinkConn) {
	sc := &sinkConn{}
	return &workerSession{sid: 9, conn: &workerConn{conn: wire.NewConn(sc)}}, sc
}

func pooledItems(n int) []wire.Item {
	items := make([]wire.Item, n)
	for i := range items {
		items[i] = wire.Item{Win: frame.PooledScalar(float64(i))}
	}
	return items
}

// received returns ef as a connection reads it: its items in one slab.
// The items' own windows are released once encoded.
func received(t *testing.T, ef *wire.EdgeFrame) *wire.EdgeFrame {
	t.Helper()
	b := wire.Append(nil, ef)
	releaseWireItems(ef.Items)
	m, err := wire.Decode(wire.TypeEdgeFrame, b[5:])
	if err != nil {
		t.Fatal(err)
	}
	return m.(*wire.EdgeFrame)
}

// TestCutEdgeTeardownReleasesQueuedWindows: whatever a cut edge or a
// relay queue holds when its session ends goes back to the arena —
// inEdge.abort, outEdge.abort, and a partitionHalf's stopRelay and
// retire, each with pooled windows or received slabs queued.
func TestCutEdgeTeardownReleasesQueuedWindows(t *testing.T) {
	base := frame.Stats().Live
	s, _ := edgeSession()

	ie := newInEdge(s, wire.EdgeSpec{ID: 1, Credit: 64})
	ie.deliver(received(t, &wire.EdgeFrame{Edge: 1, Items: append(pooledItems(40), wire.Item{IsToken: true, Tok: token.EOL(0)})}))
	if it, ok := ie.pull(); !ok || it.Win.Value() != 0 {
		t.Fatalf("pull = %v, %v", it, ok)
	} else {
		it.Win.Release()
	}
	ie.abort()
	ie.deliver(received(t, &wire.EdgeFrame{Edge: 1, Items: pooledItems(3)})) // late frame: released, not queued
	if _, ok := ie.pull(); ok {
		t.Error("aborted edge still yields items")
	}

	oe := newOutEdge(s, wire.EdgeSpec{ID: 2, Credit: 64})
	for _, it := range pooledItems(40) { // no sender running: they stay queued
		oe.push(graph.Item{Win: it.Win})
	}
	oe.abort()
	oe.push(graph.DataItem(frame.PooledScalar(1))) // late push: released

	for _, retire := range []bool{false, true} {
		h := &partitionHalf{conn: wire.NewConn(&sinkConn{}), w: &workerRef{}, relayq: fifo.New[wire.Msg](0, fifo.Unbounded)}
		h.rcond = sync.NewCond(&h.rmu)
		done := make(chan struct{})
		h.rmu.Lock() // hold the relay off until everything is queued
		go func() { h.relay(); close(done) }()
		h.rmu.Unlock()
		for i := 0; i < 5; i++ {
			h.enqueueRelay(received(t, &wire.EdgeFrame{Items: pooledItems(8)}))
			h.enqueueRelay(&wire.EdgeCredit{N: 8})
		}
		if retire {
			h.retire("test")
		} else {
			h.stopRelay()
		}
		<-done
		h.enqueueRelay(received(t, &wire.EdgeFrame{Items: pooledItems(8)})) // after the stop: released
	}
	if live := frame.Stats().Live - base; live != 0 {
		t.Errorf("%d pooled windows still live after every teardown", live)
	}
}

// TestCutEdgeOverrunAborts: an EdgeFrame carrying more items than the
// edge's credit window is a protocol violation — the worker aborts the
// partition with the error it always gave, and every window, the
// overrunning frame's included, goes back to the arena.
func TestCutEdgeOverrunAborts(t *testing.T) {
	reg := suiteRegistry(t, "4")
	p, _ := reg.Get("4")
	plan, err := placement.PlanGraph(p.Graph(), p.Analysis(), p.Machine(),
		placement.EvenFleet(p.Graph(), p.Analysis(), p.Machine(), 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The last partition only consumes cut edges.
	last := len(plan.Partitions) - 1
	open := &wire.OpenPartition{SID: 1, Pipeline: "4", Partition: uint32(last), MaxInFlight: 2,
		Nodes: plan.Partitions[last].Nodes}
	const credit = 4
	for _, c := range plan.Cuts {
		if c.From == last {
			t.Fatalf("partition %d produces cut %d; pick another", last, c.ID)
		}
		if c.To == last {
			open.Edges = append(open.Edges, wire.EdgeSpec{ID: c.ID, Dir: wire.EdgeIn, Credit: credit,
				FromNode: c.FromNode, FromPort: c.FromPort, ToNode: c.ToNode, ToPort: c.ToPort})
		}
	}

	w := NewWorker(reg, WorkerOptions{Name: "overrun"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(ln)
	defer w.Close()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)
	if _, err := c.Handshake(); err != nil {
		t.Fatal(err)
	}
	base := frame.Stats().Live
	if err := c.Write(open); err != nil {
		t.Fatal(err)
	}
	if m, err := c.Read(); err != nil {
		t.Fatal(err)
	} else if o, ok := m.(*wire.SessionOpened); !ok || o.Err != "" {
		t.Fatalf("open answered %#v", m)
	}
	// One frame, so the items land under one lock and nothing is pulled
	// in between: the ring takes `credit` of them and refuses the rest.
	over := &wire.EdgeFrame{SID: 1, Edge: open.Edges[0].ID}
	for i := 0; i < credit+3; i++ {
		over.Items = append(over.Items, wire.Item{Win: frame.Scalar(float64(i))})
	}
	if err := c.Write(over); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := c.Read()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if closed, ok := m.(*wire.SessionClosed); ok {
			if !strings.Contains(closed.Err, "overran its credit window") {
				t.Errorf("session closed with %q, want the credit-overrun error", closed.Err)
			}
			break
		}
	}
	waitCondition(t, "arena references to return to baseline", func() bool {
		return frame.Stats().Live <= base
	})
}

// ---- allocation gates ----

// wireStream is what ms occupy on a connection, CRC trailers and all.
func wireStream(t *testing.T, ms ...wire.Msg) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := wire.NewConn(&bufConn{w: &buf})
	if err := c.Write(ms...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bufConn reads from r (rewinding at the end, so a stream can be read
// forever) and writes to w.
type bufConn struct {
	net.Conn
	r      *bytes.Reader
	stream []byte
	w      *bytes.Buffer
}

func (c *bufConn) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c *bufConn) Read(p []byte) (int, error) {
	if c.r.Len() == 0 {
		c.r.Reset(c.stream)
	}
	return c.r.Read(p)
}

// warmConn is a connection that reads m forever.
func warmConn(t *testing.T, m wire.Msg) *wire.Conn {
	stream := wireStream(t, m)
	return wire.NewConn(&bufConn{r: bytes.NewReader(stream), stream: stream})
}

// readAllocs measures steady-state allocations of reading (and
// releasing) one m off a warm connection.
func readAllocs(t *testing.T, m wire.Msg) float64 {
	c := warmConn(t, m)
	read := func() {
		got, err := c.Read()
		if err != nil {
			t.Fatal(err)
		}
		switch got := got.(type) {
		case *wire.EdgeFrame:
			got.Release()
		case *wire.Result:
			releaseResult(got)
		}
	}
	read() // grow the read buffer, warm the arena
	return testing.AllocsPerRun(200, read)
}

// appFourFrame is an EdgeFrame of n row batches of 44 5-wide windows,
// the shape app 4 ships across its cuts.
func appFourFrame(n int) *wire.EdgeFrame {
	ef := &wire.EdgeFrame{SID: 1, Edge: 0}
	for i := 0; i < n; i++ {
		ef.Items = append(ef.Items, wire.Item{Win: frame.NewWindow(48, 5), B: wire.Batch{N: 44, Sx: 1, Bw: 5}})
	}
	return ef
}

// poolPerRun reports the arena gets and misses (gets a bucket could not
// serve) per call of f, over runs calls, averaged like
// testing.AllocsPerRun: in whole units, rounded down. A buffer released
// on another goroutine's P can sit out of reach of the next get, so an
// odd miss in hundreds of calls is the pool's, not the path's.
func poolPerRun(runs int, f func()) (gets, misses float64) {
	before := frame.Stats()
	for i := 0; i < runs; i++ {
		f()
	}
	after := frame.Stats()
	g, h := after.Gets-before.Gets, after.Hits-before.Hits
	return float64(g / int64(runs)), float64((g - h) / int64(runs))
}

// TestClusterDataPathAllocs gates the buffer discipline of the cut-edge
// data path: what a connection, an edge or the relay allocates per
// message is a small constant — it does not grow with the items or
// windows the message carries — and the queues themselves, once warm,
// allocate nothing.
func TestClusterDataPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector, so the arena allocates")
	}
	t.Run("conn-read", func(t *testing.T) {
		result := func(n int) wire.Msg {
			wins := make([]frame.Window, n)
			for i := range wins {
				wins[i] = frame.Scalar(float64(i))
			}
			return &wire.Result{SID: 1, Seq: 1, Outputs: []wire.NamedWindows{{Name: "result", Wins: wins}}}
		}
		// Nothing for an edge frame: the message is recycled and its
		// slab comes from the arena. The message, its output list and the
		// output's name for a result, whose windows and window lists come
		// from the arena.
		for _, tc := range []struct {
			name       string
			one, twice wire.Msg
			want       float64
		}{
			{"edge-frame", appFourFrame(26), appFourFrame(52), 0},
			{"result", result(720), result(1440), 3},
		} {
			a, b := readAllocs(t, tc.one), readAllocs(t, tc.twice)
			if a != tc.want || b != tc.want {
				t.Errorf("%s: %.0f allocs per read, %.0f at twice the size; want %.0f for both", tc.name, a, b, tc.want)
			}
		}
	})

	t.Run("in-edge", func(t *testing.T) {
		// The worker's hop: read a frame off the connection, decode its
		// slab into the edge's reused list, queue, pull and ack.
		s, sink := edgeSession()
		ie := newInEdge(s, wire.EdgeSpec{ID: 0, Credit: 64})
		const n = 26
		c := warmConn(t, appFourFrame(n))
		pass := func() {
			m, err := c.Read()
			if err != nil {
				t.Fatal(err)
			}
			ie.deliver(m.(*wire.EdgeFrame))
			for i := 0; i < n; i++ {
				it, ok := ie.pull()
				if !ok {
					t.Fatal("edge ended")
				}
				it.Win.Release()
				ie.ack()
			}
		}
		pass()
		if avg := testing.AllocsPerRun(100, pass); avg != 0 {
			t.Errorf("read→deliver→pull→ack of %d items on a warm edge: %.1f allocs, want 0", n, avg)
		}
		if sink.writes.Load() == 0 {
			t.Error("no credit was ever returned")
		}
	})

	t.Run("out-edge", func(t *testing.T) {
		s, sink := edgeSession()
		oe := newOutEdge(s, wire.EdgeSpec{ID: 2, Credit: 64})
		go oe.sender()
		defer func() { oe.abort(); <-oe.senderDone }()
		it := graph.DataItem(frame.Scalar(1))
		pass := func() {
			sent := sink.writes.Load()
			for i := 0; i < 32; i++ {
				oe.push(it)
			}
			// Wait until the sender has shipped all 32, then return their
			// credits as the consumer would.
			for {
				oe.mu.Lock()
				idle := oe.queue.Len() == 0
				oe.mu.Unlock()
				if idle && sink.writes.Load() > sent {
					break
				}
				goruntime.Gosched()
			}
			oe.addCredits(32)
		}
		pass()
		if avg := testing.AllocsPerRun(100, pass); avg != 0 {
			t.Errorf("push→sender of 32 items on a warm ring: %.1f allocs, want 0", avg)
		}
	})

	t.Run("relay-hop", func(t *testing.T) {
		// The frontend's hop: read a frame off the producer's connection,
		// log its slab and relay it verbatim to the consumer's. Per hop
		// that is one arena get, the slab, however many items the frame
		// carries. With the log off (recovery disabled, or the budget
		// spent) the slab cycles through a warm bucket and nothing
		// allocates. A log that retains the slab pays for its storage
		// when no released buffer is pooled — at most the buffer and its
		// reference count — and for nothing else.
		for _, tc := range []struct {
			name          string
			budget        int64
			keep          int64   // slabs the log retains per hop
			allocs, miss  float64 // at most, per hop
			logged, items int
		}{
			{"log-off", -1, 0, 0, 0, 0, 0},
			{"log-on", 1 << 40, 1, 2, 1, 702, 702},
		} {
			for _, n := range []int{26, 52} {
				ps, from := relaySession(tc.budget)
				to := ps.halves[1]
				sink := to.conn
				go to.relay()
				c := warmConn(t, appFourFrame(n))
				hop := func() {
					sent, live := sink.Flushes(), frame.Stats().Live+tc.keep
					m, err := c.Read()
					if err != nil {
						t.Fatal(err)
					}
					ef := m.(*wire.EdgeFrame)
					ef.SID = from.sid // as the producer's worker addresses it
					from.edgeFrame(ef)
					// Written, and the relay's slab reference ended: only a
					// retaining log still holds it.
					for sink.Flushes() == sent || frame.Stats().Live != live {
						goruntime.Gosched()
					}
				}
				hop()
				// A retaining log also grows by append; amortised over the
				// runs that is well under one allocation per hop.
				if avg := testing.AllocsPerRun(500, hop); avg > tc.allocs {
					t.Errorf("%s, %d items: read→edgeFrame→relay: %.1f allocs per hop, want at most %.0f", tc.name, n, avg, tc.allocs)
				}
				if gets, misses := poolPerRun(200, hop); gets != 1 || misses > tc.miss {
					t.Errorf("%s, %d items: %.2f arena gets and %.2f misses per hop, want 1 and at most %.0f", tc.name, n, gets, misses, tc.miss)
				}
				ps.mu.Lock()
				frames, logged, items := ps.relayFrames, len(ps.cuts[0].log), ps.cuts[0].logItems
				ps.mu.Unlock()
				if frames != 702 || logged != tc.logged || items != uint64(tc.items*n) {
					t.Errorf("%s, %d items: relayed %d frames and logged %d of %d items, want 702, %d and %d",
						tc.name, n, frames, logged, items, tc.logged, tc.items*n)
				}
				ps.terminate(nil, false)
			}
		}
	})
}

// relaySession builds a two-partition session by hand: cut edge 0 runs
// from half 0 to half 1, each half's connection writing into a sink.
// It returns the session and the producing half.
func relaySession(budget int64) (*session, *partitionHalf) {
	d := &Dispatcher{opts: DispatcherOptions{ReplayBudget: budget}}
	ps := &session{d: d, p: &serve.Pipeline{ID: "test"}, plan: &placement.Plan{
		Partitions: make([]placement.Partition, 2),
		Cuts:       []placement.CutEdge{{ID: 0, From: 0, To: 1, Credit: 1024}},
	}, cuts: make([]cutEdgeState, 1), logFull: budget < 0, done: make(chan struct{})}
	for i := 0; i < 2; i++ {
		ps.halves = append(ps.halves, testHalf(ps, i, uint64(10+i), &sinkConn{}))
	}
	return ps, ps.halves[0]
}

// testHalf is partition idx of ps placed under sid on a worker whose
// connection writes into nc.
func testHalf(ps *session, idx int, sid uint64, nc net.Conn) *partitionHalf {
	h := &partitionHalf{ps: ps, idx: idx, w: &workerRef{}, sid: sid,
		conn: wire.NewConn(nc), relayq: fifo.New[wire.Msg](0, fifo.Unbounded)}
	h.rcond = sync.NewCond(&h.rmu)
	h.w.conn = h.conn
	return h
}

// TestRelayCountersInMetrics scrapes /metrics on a 3-partition session:
// the session row carries the relay's own counters and every worker row
// its connection's flush count, so what bpbench measures with a
// byte-offset wrapper can be read from the running product.
func TestRelayCountersInMetrics(t *testing.T) {
	frontend := suiteRegistry(t, "4")
	p, _ := frontend.Get("4")
	d, _, stop := partitionedFleet(t, 3)
	defer stop()
	ts := httptest.NewServer(serve.NewServer(frontend, serve.Options{Backend: d}).Handler())
	defer ts.Close()

	h, err := openN(d, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if n := len(splitSession(t, d, h).plan.Partitions); n != 3 {
		t.Fatalf("app 4 split %d ways, want 3", n)
	}
	const frames = 3
	for f := 0; f < frames; f++ {
		feedRetry(t, h, nil)
		res, err := h.Collect(30 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		serveReleaseOutputs(res.Outputs)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics struct {
		Cluster struct {
			Workers  []map[string]any `json:"workers"`
			Sessions []map[string]any `json:"sessions"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics.Cluster.Sessions) != 1 {
		t.Fatalf("got %d session rows, want 1", len(metrics.Cluster.Sessions))
	}
	row := metrics.Cluster.Sessions[0]
	num := func(m map[string]any, key string) float64 {
		v, ok := m[key].(float64)
		if !ok {
			t.Fatalf("row %v has no numeric %q", m, key)
		}
		return v
	}
	rf, ri, rb := num(row, "relay_frames"), num(row, "relay_items"), num(row, "relay_bytes")
	if rf < frames || ri < rf || rb < 8*ri {
		t.Errorf("relay counters after %d frames: %v frames, %v items, %v bytes", frames, rf, ri, rb)
	}
	// The log retains what was relayed (plus nothing fed: inputs are
	// generated worker-side).
	if got := num(row, "replay_bytes"); got != rb {
		t.Errorf("replay_bytes %v, relay_bytes %v: the log should hold exactly the relayed items", got, rb)
	}
	if len(metrics.Cluster.Workers) != 3 {
		t.Fatalf("got %d worker rows, want 3", len(metrics.Cluster.Workers))
	}
	for _, w := range metrics.Cluster.Workers {
		if num(w, "conn_flushes") < 1 {
			t.Errorf("worker row %v reports no connection writes", w)
		}
	}
}
