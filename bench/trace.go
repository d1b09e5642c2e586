package main

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"blockpar/internal/frame"
	"blockpar/internal/runtime"
	"blockpar/internal/serve"
	"blockpar/internal/wire"
)

// Tracing lives entirely in bench/: three wrappers installed from
// outside the system (an http.Handler middleware, a serve.Backend /
// SessionHandle wrapper, a net.Conn wrapper on the dispatcher's dial)
// timestamp every layer boundary a frame crosses. Spans inside the
// program are a later change (ROADMAP item 2); until then this is what
// can be seen without touching it.
//
// A frame's identity is its session sequence number. The client sends
// it in a request header, the backend wrapper reads it off TryFeed's
// and Collect's results, and the connection wrapper reads it out of
// the Feed and Result wire frames, so the stamps of one frame line up
// across all three without any shared counter.

// One stamp per layer boundary, in the order a frame meets them.
const (
	tsClientFeedStart = iota // client: about to POST the frame
	tsHTTPFeedStart          // middleware: feed handler entered
	tsBackFeedStart          // backend wrapper: TryFeed called
	tsConnFeedWrite          // conn wrapper: Feed wire frame written
	tsBackFeedEnd            // backend wrapper: TryFeed returned
	tsHTTPFeedEnd            // middleware: feed handler returned
	tsClientFeedEnd          // client: 202 read
	tsClientCollStart        // client: about to POST the collect
	tsHTTPCollStart          // middleware: collect handler entered
	tsBackCollStart          // backend wrapper: Collect called
	tsConnResultRead         // conn wrapper: Result wire frame read
	tsBackCollEnd            // backend wrapper: Collect returned
	tsHTTPCollEnd            // middleware: collect handler returned
	tsClientCollEnd          // client: reply read
	nStamps
)

// traceCap bounds the frames one traced run keeps stamps for; at the
// fastest workload's rate this is well over the traced seconds.
const traceCap = 1 << 16

// seqHeader carries the frame's sequence number from the client to the
// middleware on traced runs.
const seqHeader = "X-Bpbench-Seq"

type tracer struct {
	on atomic.Bool
	t0 time.Time
	// base is the sequence number stamps[0] belongs to.
	base   int64
	stamps [][nStamps]atomic.Int64 // ns since t0; 0 = not seen

	// Connection counters, accumulated while on.
	connWrites atomic.Int64
	txBytes    atomic.Int64
	rxBytes    atomic.Int64
	relayBytes atomic.Int64 // EdgeFrame bytes, both directions
}

func newTracer(base int64) *tracer {
	return &tracer{t0: time.Now(), base: base, stamps: make([][nStamps]atomic.Int64, traceCap)}
}

// mark records one boundary crossing of frame seq. Off, out of range,
// or nil tracer: nothing happens.
func (tr *tracer) mark(seq int64, stamp int, t time.Time) {
	if tr == nil || !tr.on.Load() {
		return
	}
	i := seq - tr.base
	if i < 0 || i >= int64(len(tr.stamps)) {
		return
	}
	tr.stamps[i][stamp].Store(t.Sub(tr.t0).Nanoseconds())
}

// middleware times the feed and collect handlers from outside
// srv.Handler().
func (tr *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		first, last := -1, -1
		switch {
		case strings.HasSuffix(r.URL.Path, "/frames"):
			first, last = tsHTTPFeedStart, tsHTTPFeedEnd
		case strings.HasSuffix(r.URL.Path, "/collect"):
			first, last = tsHTTPCollStart, tsHTTPCollEnd
		}
		seq, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
		if first < 0 || err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		tr.mark(seq, first, start)
		tr.mark(seq, last, time.Now())
	})
}

// tracedBackend wraps whatever serve.Options.Backend would have been.
type tracedBackend struct {
	inner serve.Backend
	tr    *tracer
}

func (b *tracedBackend) Open(p *serve.Pipeline, opts serve.OpenOptions) (serve.SessionHandle, error) {
	h, err := b.inner.Open(p, opts)
	if err != nil {
		return nil, err
	}
	return &tracedHandle{SessionHandle: h, tr: b.tr}, nil
}

type tracedHandle struct {
	serve.SessionHandle
	tr *tracer
}

func (h *tracedHandle) TryFeed(inputs map[string]frame.Window) (int64, error) {
	if !h.tr.on.Load() {
		return h.SessionHandle.TryFeed(inputs)
	}
	start := time.Now()
	seq, err := h.SessionHandle.TryFeed(inputs)
	if err == nil {
		h.tr.mark(seq, tsBackFeedStart, start)
		h.tr.mark(seq, tsBackFeedEnd, time.Now())
	}
	return seq, err
}

func (h *tracedHandle) Collect(timeout time.Duration) (*runtime.StreamResult, error) {
	if !h.tr.on.Load() {
		return h.SessionHandle.Collect(timeout)
	}
	start := time.Now()
	res, err := h.SessionHandle.Collect(timeout)
	if err == nil {
		h.tr.mark(res.Seq, tsBackCollStart, start)
		h.tr.mark(res.Seq, tsBackCollEnd, time.Now())
	}
	return res, err
}

// dial is DispatcherOptions.Dial for traced runs: the default TCP dial
// with both directions of the connection scanned for wire frames.
func (tr *tracer) dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: tr}, nil
}

// tracedConn follows the [u32 length | u8 type | payload | crc] framing
// of internal/wire on a frontend→worker connection. The scanners run
// even while tracing is off — a byte stream read in arbitrary chunks
// only stays in frame if every chunk is seen — but only count and stamp
// while it is on.
type tracedConn struct {
	net.Conn
	tr     *tracer
	rd, wr frameScanner
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	on := c.tr.on.Load()
	if on {
		c.tr.connWrites.Add(1)
		c.tr.txBytes.Add(int64(n))
	}
	now := time.Now()
	c.wr.scan(p[:n], func(typ wire.MsgType, size int, seq int64) {
		if !on {
			return
		}
		switch typ {
		case wire.TypeFeed:
			c.tr.mark(seq, tsConnFeedWrite, now)
		case wire.TypeEdgeFrame:
			c.tr.relayBytes.Add(int64(size))
		}
	})
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	on := c.tr.on.Load()
	if on {
		c.tr.rxBytes.Add(int64(n))
	}
	now := time.Now()
	c.rd.scan(p[:n], func(typ wire.MsgType, size int, seq int64) {
		if !on {
			return
		}
		switch typ {
		case wire.TypeResult:
			c.tr.mark(seq, tsConnResultRead, now)
		case wire.TypeEdgeFrame:
			c.tr.relayBytes.Add(int64(size))
		}
	})
	return n, err
}

// scanHead is how much of a frame the scanner keeps: the length, the
// type, and — for Feed and Result, which both begin [u64 sid|i64 seq]
// — the sequence number.
const scanHead = 4 + 1 + 8 + 8

// frameScanner walks a byte stream of wire frames fed to it in
// arbitrary pieces and reports each frame's type, total size and (for
// Feed/Result) sequence number once its head is complete.
type frameScanner struct {
	head [scanHead]byte
	have int // head bytes gathered for the current frame
	want int // head bytes to gather (0 until the length is known)
	size int // total encoded size of the current frame
	skip int // body bytes of the current frame still to pass over
}

func (s *frameScanner) scan(p []byte, emit func(typ wire.MsgType, size int, seq int64)) {
	for len(p) > 0 {
		if s.skip > 0 {
			n := min(s.skip, len(p))
			s.skip -= n
			p = p[n:]
			continue
		}
		want := s.want
		if want == 0 {
			want = 4
		}
		n := copy(s.head[s.have:want], p)
		s.have += n
		p = p[n:]
		if s.have < want {
			return
		}
		if s.want == 0 {
			s.size = 4 + int(binary.BigEndian.Uint32(s.head[:4]))
			s.want = min(scanHead, s.size)
			if s.have < s.want {
				continue
			}
		}
		typ := wire.MsgType(s.head[4])
		seq := int64(-1)
		if s.want == scanHead && (typ == wire.TypeFeed || typ == wire.TypeResult) {
			seq = int64(binary.BigEndian.Uint64(s.head[13:21]))
		}
		emit(typ, s.size, seq)
		s.skip = s.size - s.want
		s.have, s.want = 0, 0
	}
}

// span is one timed interval of one frame in one layer.
type span struct {
	name, parent string
	tid          int
	from, to     int // stamp indices
}

// spans lists the intervals the stamps delimit, parents before
// children. tid groups them into the rows a trace viewer shows.
var spans = []span{
	{"client.feed", "", 1, tsClientFeedStart, tsClientFeedEnd},
	{"serve.feed", "client.feed", 2, tsHTTPFeedStart, tsHTTPFeedEnd},
	{"backend.try_feed", "serve.feed", 3, tsBackFeedStart, tsBackFeedEnd},
	{"cluster.turnaround", "", 4, tsConnFeedWrite, tsConnResultRead},
	{"client.collect", "", 5, tsClientCollStart, tsClientCollEnd},
	{"serve.collect", "client.collect", 6, tsHTTPCollStart, tsHTTPCollEnd},
	{"backend.collect", "serve.collect", 7, tsBackCollStart, tsBackCollEnd},
}

// traceEvent is one entry of the Chrome trace_event format — the same
// shape internal/sim's WriteTraceJSON emits, so a predicted timeline
// from bpsim and a measured one from here open side by side.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes every complete span of every stamped frame.
func (tr *tracer) writeTrace(path, session string) (n int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := io.WriteString(f, "{\"traceEvents\":[\n"); err != nil {
		return 0, err
	}
	enc := func(ev traceEvent) error {
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if n > 0 {
			if _, err := io.WriteString(f, ",\n"); err != nil {
				return err
			}
		}
		n++
		_, err = f.Write(data)
		return err
	}
	for _, sp := range spans {
		if err := enc(traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: sp.tid,
			Args: map[string]any{"name": sp.name}}); err != nil {
			return n, err
		}
	}
	for i := range tr.stamps {
		st := &tr.stamps[i]
		for _, sp := range spans {
			a, b := st[sp.from].Load(), st[sp.to].Load()
			if a == 0 || b == 0 || b < a {
				continue
			}
			args := map[string]any{"frame": session + "/" + strconv.FormatInt(tr.base+int64(i), 10)}
			if sp.parent != "" {
				args["parent"] = sp.parent
			}
			if err := enc(traceEvent{Name: sp.name, Cat: "frame", Ph: "X",
				Ts: float64(a) / 1e3, Dur: float64(b-a) / 1e3, Pid: 1, Tid: sp.tid, Args: args}); err != nil {
				return n, err
			}
		}
	}
	_, err = io.WriteString(f, "\n],\"displayTimeUnit\":\"ms\"}\n")
	return n, err
}

// spanStats is what the stamps say about each layer, as means over the
// frames whose stamps are complete.
type spanStats struct {
	frames         int
	feedSelfUS     float64 // serve.feed span − backend.try_feed span
	collectSelfUS  float64 // serve.collect span − backend.collect span
	collectWaitUS  float64 // backend.collect span
	backendFeedUS  float64 // backend.try_feed span
	turnaroundUS   float64 // Feed frame written → Result frame read
	turnaroundN    int
	frameUS        float64 // client feed start → client reply read
	attributedUS   float64 // sum of the self times along the frame
	clientSelfUS   float64
	pipelineUS     float64 // TryFeed returned → Collect returned
	attributedFrac float64
}

func (tr *tracer) reduce() spanStats {
	var s spanStats
	var turn float64
	for i := range tr.stamps {
		st := &tr.stamps[i]
		var t [nStamps]float64
		complete := true
		for k := 0; k < nStamps; k++ {
			v := st[k].Load()
			if v == 0 && k != tsConnFeedWrite && k != tsConnResultRead {
				complete = false
				break
			}
			t[k] = float64(v) / 1e3
		}
		if !complete {
			continue
		}
		s.frames++
		feed := t[tsBackFeedEnd] - t[tsBackFeedStart]
		wait := t[tsBackCollEnd] - t[tsBackCollStart]
		feedSelf := (t[tsHTTPFeedEnd] - t[tsHTTPFeedStart]) - feed
		collSelf := (t[tsHTTPCollEnd] - t[tsHTTPCollStart]) - wait
		clientSelf := (t[tsClientFeedEnd] - t[tsClientFeedStart]) - (t[tsHTTPFeedEnd] - t[tsHTTPFeedStart]) +
			(t[tsClientCollEnd] - t[tsClientCollStart]) - (t[tsHTTPCollEnd] - t[tsHTTPCollStart])
		pipeline := t[tsBackCollEnd] - t[tsBackFeedEnd]
		s.backendFeedUS += feed
		s.collectWaitUS += wait
		s.feedSelfUS += feedSelf
		s.collectSelfUS += collSelf
		s.clientSelfUS += clientSelf
		s.pipelineUS += pipeline
		s.frameUS += t[tsClientCollEnd] - t[tsClientFeedStart]
		s.attributedUS += clientSelf + feedSelf + feed + pipeline + collSelf
		if st[tsConnFeedWrite].Load() != 0 && st[tsConnResultRead].Load() != 0 {
			turn += t[tsConnResultRead] - t[tsConnFeedWrite]
			s.turnaroundN++
		}
	}
	if s.frames > 0 {
		n := float64(s.frames)
		s.backendFeedUS /= n
		s.collectWaitUS /= n
		s.feedSelfUS /= n
		s.collectSelfUS /= n
		s.clientSelfUS /= n
		s.pipelineUS /= n
		s.frameUS /= n
		s.attributedUS /= n
		s.attributedFrac = s.attributedUS / s.frameUS
	}
	if s.turnaroundN > 0 {
		s.turnaroundUS = turn / float64(s.turnaroundN)
	}
	return s
}
