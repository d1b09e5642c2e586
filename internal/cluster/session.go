package cluster

// The session: one serve.SessionHandle over a placement.Plan of N >= 1
// partitions, each a partitionHalf registered in its worker's table.
// The session routes each feed to the partitions owning input nodes,
// relays cut-edge streams (and their credits) between the workers,
// merges per-partition results back into one in-order stream, and logs
// what it would need to rebuild any one partition elsewhere — see
// recover.go. With one partition there are no cut edges to relay or
// log and the merge is the identity; nothing else differs.

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"blockpar/internal/fifo"
	"blockpar/internal/frame"
	"blockpar/internal/graph"
	"blockpar/internal/placement"
	"blockpar/internal/runtime"
	"blockpar/internal/serve"
	"blockpar/internal/wire"
)

// session implements serve.SessionHandle with the same error
// vocabulary as the in-process runtime: ErrQueueFull when the in-flight
// window is full, ErrBadFrame on local input validation, an
// ErrCollectTimeout wrapper on Collect deadlines.
//
// Flow control is global: TryFeed bounds fed-minus-collected by
// MaxInFlight, exactly the local session's window. No per-partition
// credit gates live feeds — a merged result requires every output
// partition to have finished the frame, which requires every upstream
// partition to have consumed it, so each worker's feed queue occupancy
// stays within its maxInFlight+1 capacity. The workers' Credit frames
// pace recovery replay only. Cut edges pace themselves with their own
// credit windows, relayed between the halves.
type session struct {
	d           *Dispatcher
	p           *serve.Pipeline
	plan        *placement.Plan
	maxInFlight int
	deadline    time.Time // absolute session deadline; zero = unbounded

	inputOwner map[string]int // input node name -> owning partition
	feedParts  []int          // partitions owning at least one input
	outParts   []int          // partitions owning at least one output

	// sendMu orders feeds and the close on every half's wire: Seq order
	// per partition (the worker tears the session down on any gap), and
	// the close after the last accepted feed.
	sendMu sync.Mutex

	mu sync.Mutex
	// halves[i] is partition i's current worker presence; recovery swaps
	// an entry in place. Shorter than the plan while co-scheduling.
	halves       []*partitionHalf
	admitted     float64   // cycles/sec held from the admission pool; terminate returns it
	lastProgress time.Time // last feed, result, credit or edge frame, for the stall watchdog
	fed          int64
	completed    int64   // merged results delivered to the results channel
	collected    int64   // results handed to Collect callers
	delivered    []int64 // per-partition next expected result seq (the dedup watermark)
	// bufs queues each output partition's per-frame outputs until every
	// output partition has delivered the frame; bounded by the feed
	// window (fed - completed <= maxInFlight).
	bufs      [][]map[string][]frame.Window
	closedN   int
	closeSent bool
	noFeed    error // feeds refused (worker draining); results still flow
	ended     bool
	err       error

	// Recovery state. feedLog holds every accepted feed (entry index ==
	// seq); cuts holds each cut edge's frame log and watermarks. Both
	// charge logBytes against the dispatcher's ReplayBudget; when it
	// overflows, logFull releases everything and any partition loss
	// becomes fatal.
	feedLog       []logEntry
	cuts          []cutEdgeState
	logBytes      int64
	logFull       bool
	recovering    bool // a partition is being re-homed; feeds are paused
	recoveringIdx int

	// What the relay has carried between this session's partitions:
	// edge frames, their items, and the items' sample bytes, each
	// counted once (the frontend reads and re-writes every one).
	relayFrames, relayItems, relayBytes int64

	results chan *runtime.StreamResult
	done    chan struct{}
}

// logEntry is one fed frame in the session's replay history. Generated
// frames (nil inputs) carry nothing — the worker regenerates them from
// the frame index; explicit inputs hold one arena reference per window
// until the session ends.
type logEntry struct {
	inputs []wire.NamedWindow
}

// cutEdgeState is the frontend's view of one cut edge, guarded by
// ps.mu. The watermarks make per-partition replay possible: sent counts
// items delivered toward the edge's CURRENT consumer instance, acked
// counts credits relayed toward the producer (after swallowing), and
// rawAcks counts every credit the consumer ever returned. While the
// consumer recovers, buffering parks live frames in the log instead of
// relaying them, and swallow absorbs the replayed instance's
// re-acknowledgements of items the producer was already credited for.
type cutEdgeState struct {
	// log is the edge's history: every item-carrying frame the producer
	// sent, still encoded as it was received, one slab reference each.
	log       []wire.Slab
	logItems  uint64 // items across log
	sent      uint64
	acked     uint64
	rawAcks   uint64
	swallow   uint64
	buffering bool
	eosLogged bool // producer ended the stream at len(log)
	eosSent   bool // EOS delivered to the current consumer instance
}

func newSession(d *Dispatcher, p *serve.Pipeline, plan *placement.Plan, opts serve.OpenOptions, admitted float64) *session {
	n := len(plan.Partitions)
	ps := &session{
		d:            d,
		p:            p,
		plan:         plan,
		maxInFlight:  opts.MaxInFlight,
		inputOwner:   make(map[string]int),
		admitted:     admitted,
		lastProgress: time.Now(),
		delivered:    make([]int64, n),
		bufs:         make([][]map[string][]frame.Window, n),
		cuts:         make([]cutEdgeState, len(plan.Cuts)),
		logFull:      d.opts.ReplayBudget < 0,
		results:      make(chan *runtime.StreamResult, opts.MaxInFlight+1),
		done:         make(chan struct{}),
	}
	if opts.Deadline > 0 {
		ps.deadline = time.Now().Add(opts.Deadline)
	}
	partOf := make(map[string]int)
	for i, part := range plan.Partitions {
		for _, name := range part.Nodes {
			partOf[name] = i
		}
	}
	feeds, outs := make(map[int]bool), make(map[int]bool)
	for _, in := range p.Graph().Inputs() {
		ps.inputOwner[in.Name()] = partOf[in.Name()]
		feeds[partOf[in.Name()]] = true
	}
	for _, out := range p.Graph().Outputs() {
		outs[partOf[out.Name()]] = true
	}
	for idx := range feeds {
		ps.feedParts = append(ps.feedParts, idx)
	}
	for idx := range outs {
		ps.outParts = append(ps.outParts, idx)
	}
	sort.Ints(ps.feedParts)
	sort.Ints(ps.outParts)
	return ps
}

// placed reports whether every partition of the plan has a half — false
// only while place is still co-scheduling. Caller holds ps.mu.
func (ps *session) placed() bool { return len(ps.halves) == len(ps.plan.Partitions) }

// terminate is the single funnel every session ending passes through,
// once: buffered partial frames and the replay logs are released, the
// admission hold returns to the pool, relays stop, and done closes.
// With notify set (failure paths) every half is also torn out of its
// worker's table and its worker told to abort — the surviving
// partitions must not keep running a session whose peer died.
func (ps *session) terminate(err error, notify bool) {
	ps.mu.Lock()
	if ps.ended {
		ps.mu.Unlock()
		return
	}
	ps.ended = true
	if ps.err == nil {
		ps.err = err
	}
	for i := range ps.bufs {
		for _, outs := range ps.bufs[i] {
			serveReleaseOutputs(outs)
		}
		ps.bufs[i] = nil
	}
	ps.releaseLogsLocked()
	halves := append([]*partitionHalf(nil), ps.halves...)
	admitted := ps.admitted
	ps.admitted = 0
	ps.mu.Unlock()
	ps.d.releaseAdmission(admitted)
	for _, h := range halves {
		if notify {
			h.retire("session failed")
		} else {
			h.stopRelay()
		}
	}
	close(ps.done)
}

func (ps *session) fail(err error) { ps.terminate(err, true) }

// windowBytes is what a logged window charges against ReplayBudget:
// its samples at their native width, which is what the log retains — a
// u8 frame costs an eighth of an f64 frame of the same shape.
func windowBytes(w frame.Window) int64 {
	return int64(w.W) * int64(w.H) * int64(w.Kind.Bytes())
}

// logFeedLocked appends one accepted feed to the replay log, taking
// over the caller's window references on success. Caller holds ps.mu.
func (ps *session) logFeedLocked(inputs map[string]frame.Window) bool {
	if ps.logFull {
		return false
	}
	var entry logEntry
	var sz int64
	for name, win := range inputs {
		sz += windowBytes(win)
		entry.inputs = append(entry.inputs, wire.NamedWindow{Name: name, Win: win})
	}
	if ps.logBytes+sz > ps.d.opts.ReplayBudget {
		ps.logFullLocked()
		return false
	}
	ps.feedLog = append(ps.feedLog, entry)
	ps.logBytes += sz
	return true
}

// logEdgeFrameLocked appends one received edge frame's items to the
// edge's replay log, retaining the slab for the log's reference and
// charging its sample bytes. A frame without items (a bare
// end-of-stream) logs nothing. Caller holds ps.mu.
func (ps *session) logEdgeFrameLocked(es *cutEdgeState, s wire.Slab) bool {
	if ps.logFull {
		return false
	}
	if s.N == 0 {
		return true
	}
	if ps.logBytes+s.SampleBytes > ps.d.opts.ReplayBudget {
		ps.logFullLocked()
		return false
	}
	s.Retain(1)
	es.log = append(es.log, s)
	es.logItems += uint64(s.N)
	ps.logBytes += s.SampleBytes
	return true
}

// logFullLocked abandons recoverability: a partial history can never
// replay byte-identically, so every retained window and slab goes back
// to the arena at once rather than pinning the budget for nothing. From
// here a worker loss ends the session, so the overflow is logged once.
func (ps *session) logFullLocked() {
	ps.logFull = true
	ps.releaseLogsLocked()
	sids := make([]uint64, len(ps.halves))
	for i, h := range ps.halves {
		sids[i] = h.sid
	}
	slog.Warn("cluster: replay log over budget, released; a worker loss now ends the session",
		"pipeline", ps.p.ID, "sids", sids, "fed", ps.fed, "budget", ps.d.opts.ReplayBudget)
}

func (ps *session) releaseLogsLocked() {
	for _, e := range ps.feedLog {
		for _, in := range e.inputs {
			in.Win.Release()
		}
	}
	ps.feedLog = nil
	for i := range ps.cuts {
		for _, s := range ps.cuts[i].log {
			s.Release()
		}
		ps.cuts[i].log, ps.cuts[i].logItems = nil, 0
	}
	ps.logBytes = 0
}

// row is the session's /metrics row.
func (ps *session) row() SessionStats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	row := SessionStats{
		Pipeline:    ps.p.ID,
		Partitions:  len(ps.halves),
		Workers:     make([]string, 0, len(ps.halves)),
		ReplayBytes: ps.logBytes,
		ReplayLost:  ps.logFull,
		RelayFrames: ps.relayFrames,
		RelayItems:  ps.relayItems,
		RelayBytes:  ps.relayBytes,
	}
	for _, h := range ps.halves {
		row.Workers = append(row.Workers, h.w.addr)
	}
	return row
}

// sendClose ships CloseSession to every half, after any in-flight
// feed. A partition mid-recovery is skipped: reopenOn delivers its
// close once the replay lands (closeSent stays set so it knows to).
func (ps *session) sendClose() {
	ps.sendMu.Lock()
	defer ps.sendMu.Unlock()
	ps.mu.Lock()
	halves := append([]*partitionHalf(nil), ps.halves...)
	skip := -1
	if ps.recovering {
		skip = ps.recoveringIdx
	}
	ps.mu.Unlock()
	for i, h := range halves {
		if i == skip {
			continue
		}
		if err := h.conn.Write(&wire.CloseSession{SID: h.sid}); err != nil {
			h.conn.Close()
		}
	}
}

// TryFeed validates the frame locally (same checks and error values as
// runtime.Session), logs it for recovery replay, and routes it: each
// partition owning input nodes gets a Feed carrying its subset of the
// explicit windows (absent inputs regenerate worker-side from the frame
// index). Ownership matches the local runtime's Feed: on success the
// transport owns the pooled inputs; within the replay budget they stay
// retained in the log until the session ends, otherwise they release
// once encoded.
func (ps *session) TryFeed(inputs map[string]frame.Window) (int64, error) {
	if err := validateInputs(ps.p, inputs); err != nil {
		return 0, err
	}
	ps.sendMu.Lock()
	defer ps.sendMu.Unlock()
	ps.mu.Lock()
	if ps.ended {
		err := ps.err
		ps.mu.Unlock()
		if errors.Is(err, runtime.ErrSessionClosed) {
			return 0, runtime.ErrSessionClosed
		}
		return 0, err
	}
	if ps.noFeed != nil {
		err := ps.noFeed
		ps.mu.Unlock()
		return 0, err
	}
	// Two bounds, both ErrQueueFull: the caller stopped collecting, and
	// a recovery in progress — it pauses the feed plane so the replay
	// snapshot freezes at ps.fed, and the client sees ordinary
	// backpressure.
	if ps.fed-ps.collected >= int64(ps.maxInFlight) || ps.recovering {
		ps.mu.Unlock()
		return 0, runtime.ErrQueueFull
	}
	seq := ps.fed
	ps.fed++
	ps.lastProgress = time.Now()
	// The replay log takes over the caller's references; retain one per
	// window for the wire writes below, so a concurrent terminal release
	// cannot poison the samples mid-write. When the log is full the
	// writes consume the caller's references directly.
	if ps.logFeedLocked(inputs) {
		for _, win := range inputs {
			win.Retain(1)
		}
	}
	halves := append([]*partitionHalf(nil), ps.halves...)
	ps.mu.Unlock()

	for _, idx := range ps.feedParts {
		h := halves[idx]
		m := &wire.Feed{SID: h.sid, Seq: seq}
		for name, win := range inputs {
			if ps.inputOwner[name] == idx {
				m.Inputs = append(m.Inputs, wire.NamedWindow{Name: name, Win: win})
			}
		}
		if err := h.conn.Write(m); err != nil {
			// The connection died under the feed; connLost recovers the
			// partition (or fails the session) and the replay re-delivers
			// this frame. The feed counts as accepted either way.
			h.conn.Close()
		}
		h.w.framesRouted.Add(1)
	}
	for _, win := range inputs {
		win.Release()
	}
	return seq, nil
}

// Collect returns the next merged frame in order. Its timeout error
// wraps runtime.ErrCollectTimeout so the HTTP layer maps it to 504 like
// a local session's.
func (ps *session) Collect(timeout time.Duration) (*runtime.StreamResult, error) {
	var tc <-chan time.Time
	fired := false // the select below took the timer's value
	if timeout > 0 {
		t := runtime.AcquireTimer(timeout)
		defer func() { runtime.ReleaseTimer(t, fired) }()
		tc = t.C
	}
	select {
	case res := <-ps.results:
		ps.noteCollected()
		return res, nil
	case <-tc:
		fired = true
		return nil, fmt.Errorf("cluster: session %w after %v", runtime.ErrCollectTimeout, timeout)
	case <-ps.done:
		// Results buffered before the failure are still deliverable.
		select {
		case res := <-ps.results:
			ps.noteCollected()
			return res, nil
		default:
		}
		ps.mu.Lock()
		defer ps.mu.Unlock()
		return nil, ps.err
	}
}

func (ps *session) noteCollected() {
	ps.mu.Lock()
	ps.collected++
	ps.mu.Unlock()
}

// Fed reports frames accepted from the caller.
func (ps *session) Fed() int64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.fed
}

// Completed reports merged results received back from the workers.
func (ps *session) Completed() int64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.completed
}

// InFlight reports frames fed but not yet collected by the caller.
func (ps *session) InFlight() int64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.fed - ps.collected
}

// Close drains every partition: each worker finishes its fed frames,
// end-of-stream propagates across the cut edges, and once all halves
// report SessionClosed the session completes. The close timeout
// escalates to a hard abort of every partition. Buffered results the
// caller never collected are released. It returns the session's
// failure, if any — a clean shutdown (including one that recovered
// along the way) returns nil.
func (ps *session) Close() error {
	ps.mu.Lock()
	already := ps.closeSent
	ps.closeSent = true
	ended := ps.ended
	ps.mu.Unlock()
	if !already && !ended {
		ps.sendClose()
	}
	select {
	case <-ps.done:
	case <-time.After(ps.d.opts.CloseTimeout):
		ps.fail(fmt.Errorf("cluster: session close not acknowledged within %v", ps.d.opts.CloseTimeout))
	}
	for {
		select {
		case res := <-ps.results:
			serveReleaseOutputs(res.Outputs)
		default:
			ps.mu.Lock()
			err := ps.err
			ps.mu.Unlock()
			if errors.Is(err, runtime.ErrSessionClosed) {
				return nil
			}
			return err
		}
	}
}

// partitionHalf is one partition's presence on its worker connection:
// what the worker read loop routes session frames through, plus the
// relay queue carrying cut-edge traffic addressed to this partition.
// Relays run on their own goroutine so a read loop never blocks
// writing to a different worker's connection — two read loops relaying
// toward each other's connections could otherwise deadlock.
type partitionHalf struct {
	ps   *session
	idx  int
	w    *workerRef
	sid  uint64
	conn *wire.Conn

	// Guarded by ps.mu. credits counts feed credits returned by THIS
	// worker instance — replayFeeds paces the feed history against it;
	// lastProgress is the last frame of any kind it sent us, which is
	// how the stall watchdog picks the quietest partition.
	credits      int64
	lastProgress time.Time

	rmu    sync.Mutex
	rcond  *sync.Cond
	relayq fifo.Ring[wire.Msg]
	rstop  bool
}

// enqueueRelay queues one already-retargeted message for this half's
// connection, taking ownership of a received edge frame. The queue is
// bounded by the edges' credit windows — a producer only sends items
// it holds credits for.
func (h *partitionHalf) enqueueRelay(m wire.Msg) {
	h.rmu.Lock()
	if h.rstop {
		h.rmu.Unlock()
		releaseRelayed(m)
		return
	}
	h.relayq.Push(&m)
	h.rcond.Signal()
	h.rmu.Unlock()
}

func (h *partitionHalf) stopRelay() {
	h.rmu.Lock()
	h.rstop = true
	h.rcond.Broadcast()
	h.rmu.Unlock()
}

// retire tears the half out of its worker: the relay stops (queued
// items release), the worker-side instance is told to abort — it drops
// the partition on wire.Error without reporting back — and the sid
// unregisters so nothing routes to it again. The abort goes first:
// unregister may hang up a drained-idle connection.
func (h *partitionHalf) retire(reason string) {
	h.stopRelay()
	h.conn.Write(&wire.Error{SID: h.sid, Msg: reason})
	h.w.unregister(h.conn, h.sid)
}

// relay drains the queue onto the connection in order, everything
// queued at each wake-up as one write; an edge frame's slab is written
// verbatim behind its retargeted header. A write failure closes the
// connection — connLost decides whether that means a partition recovery
// or the end of the session — and the loop keeps consuming (and
// releasing) queued messages until stopRelay arrives and the queue is
// empty, so every queued slab returns to the arena.
func (h *partitionHalf) relay() {
	broken := false
	var batch []wire.Msg
	for {
		h.rmu.Lock()
		for h.relayq.Len() == 0 && !h.rstop {
			h.rcond.Wait()
		}
		batch = h.relayq.PopInto(batch[:0], h.relayq.Len())
		h.rmu.Unlock()
		if len(batch) == 0 {
			return // stopped and drained
		}
		if !broken {
			if err := h.conn.Write(batch...); err != nil {
				h.conn.Close()
				broken = true
			}
		}
		for _, m := range batch {
			releaseRelayed(m)
		}
		clear(batch)
	}
}

// releaseRelayed ends a relay queue entry: a received edge frame goes
// back with its slab, a credit is garbage.
func releaseRelayed(m wire.Msg) {
	if ef, ok := m.(*wire.EdgeFrame); ok {
		ef.Release()
	}
}

// current reports whether h is still its partition's installed half —
// false for a replaced or retired instance whose late frames must be
// ignored. Caller holds ps.mu.
func (h *partitionHalf) current() bool {
	ps := h.ps
	return !ps.ended && ps.placed() && ps.halves[h.idx] == h
}

// progressLocked stamps the stall watchdog's clocks. Caller holds ps.mu.
func (h *partitionHalf) progressLocked() {
	now := time.Now()
	h.lastProgress = now
	h.ps.lastProgress = now
}

// deliver merges one partition's per-frame result into the global
// stream: each output partition's local seq equals the global frame
// seq (every frame crosses every partition), so frame k completes once
// all output partitions have delivered k. delivered is the dedup
// watermark: a re-placed partition re-produces the stream from the
// start; the worker suppresses results below its resume watermark, but
// a racing result that crossed the wire before the old conn died can
// still land twice, and is dropped (at-most-once). The results channel
// is sized for the feed window, so a blocked send means a worker broke
// the protocol.
func (h *partitionHalf) deliver(m *wire.Result) {
	ps := h.ps
	outputs := make(map[string][]frame.Window, len(m.Outputs))
	for _, out := range m.Outputs {
		outputs[out.Name] = out.Wins
	}
	ps.mu.Lock()
	if ps.ended || m.Seq < ps.delivered[h.idx] {
		ps.mu.Unlock()
		serveReleaseOutputs(outputs)
		return
	}
	if m.Seq != ps.delivered[h.idx] {
		ps.mu.Unlock()
		serveReleaseOutputs(outputs)
		ps.fail(fmt.Errorf("cluster: worker %s delivered frame %d of partition %d, want %d",
			h.w.addr, m.Seq, h.idx, ps.delivered[h.idx]))
		return
	}
	ps.delivered[h.idx]++
	h.progressLocked()
	// Frames complete one at a time: before this result some output
	// partition had nothing buffered (or the frame would already have
	// merged), so if that partition is not h the frame still waits, and
	// if it is h then h's queue is empty and this result completes
	// exactly one frame. Only a waiting result is queued, and the merge
	// lands in this result's own map, so the one-partition case buffers
	// and allocates nothing.
	for _, idx := range ps.outParts {
		if idx != h.idx && len(ps.bufs[idx]) == 0 {
			ps.bufs[h.idx] = append(ps.bufs[h.idx], outputs)
			ps.mu.Unlock()
			return
		}
	}
	for _, idx := range ps.outParts {
		if idx == h.idx {
			continue
		}
		for name, wins := range ps.bufs[idx][0] {
			outputs[name] = wins
		}
		ps.bufs[idx] = ps.bufs[idx][1:]
	}
	res := &runtime.StreamResult{Seq: ps.completed, Outputs: outputs}
	ps.completed++
	ps.mu.Unlock()
	select {
	case ps.results <- res:
	default:
		serveReleaseOutputs(outputs)
		ps.fail(fmt.Errorf("cluster: worker %s overran the result window", h.w.addr))
	}
}

// addCredits counts the feed credits this worker instance returned.
// Live flow control is the session's global window; recovery replays a
// partition's feed history paced by exactly these — each new instance
// starts at zero, so the counter reflects only what it has accepted.
func (h *partitionHalf) addCredits(n int) {
	ps := h.ps
	ps.mu.Lock()
	h.credits += int64(n)
	h.progressLocked()
	ps.mu.Unlock()
}

// edgeFrame relays a received cut-edge frame from the producing
// partition to the consuming one, logging its slab for replay and
// maintaining the edge's delivery watermark. Only the header is read:
// the items stay encoded from one worker's connection to the other's.
// While the consumer is mid-recovery the frame only lands in the log —
// its replay goroutine delivers from there, so a direct relay would
// duplicate the stream.
func (h *partitionHalf) edgeFrame(m *wire.EdgeFrame) {
	ps := h.ps
	if int(m.Edge) >= len(ps.plan.Cuts) {
		err := fmt.Errorf("cluster: worker %s sent unknown cut edge %d", h.w.addr, m.Edge)
		m.Release()
		ps.fail(err)
		return
	}
	c := ps.plan.Cuts[m.Edge]
	if c.From != h.idx {
		err := fmt.Errorf("cluster: worker %s sent edge %d items from partition %d, producer is %d",
			h.w.addr, m.Edge, h.idx, c.From)
		m.Release()
		ps.fail(err)
		return
	}
	ps.mu.Lock()
	if !h.current() {
		ps.mu.Unlock()
		m.Release()
		return
	}
	h.progressLocked()
	es := &ps.cuts[m.Edge]
	n := m.Slab.N
	ps.relayFrames++
	ps.relayItems += int64(n)
	ps.relayBytes += m.Slab.SampleBytes
	logged := ps.logEdgeFrameLocked(es, m.Slab)
	if !logged && ps.recovering {
		ps.mu.Unlock()
		m.Release()
		ps.fail(fmt.Errorf("%w: replay budget exhausted during partition recovery", serve.ErrSessionLost))
		return
	}
	if m.EOS {
		es.eosLogged = true
		if es.eosSent {
			// A re-placed producer replays its stream tail; the consumer
			// already heard end-of-stream from the dead instance's relay.
			m.EOS = false
		}
	}
	if es.buffering {
		ps.mu.Unlock()
		m.Release()
		return
	}
	es.sent += uint64(n)
	if m.EOS {
		es.eosSent = true
	}
	t := ps.halves[c.To]
	ps.mu.Unlock()
	if n == 0 && !m.EOS {
		m.Release()
		return // a fully-deduplicated end-of-stream repeat
	}
	// The received frame is ours: retarget its header and relay the
	// slab as it came.
	m.SID = t.sid
	t.enqueueRelay(m)
}

// edgeCredit accounts consumption credits and relays them toward the
// producing partition. Credits re-acknowledging replayed items are
// swallowed — the producer was credited for those before its consumer
// died — and credits addressed to a dead producer's stopped relay queue
// drop harmlessly: acked is the source of truth, and the reopen
// forwards the delta the new instance missed.
func (h *partitionHalf) edgeCredit(m *wire.EdgeCredit) {
	ps := h.ps
	if int(m.Edge) >= len(ps.plan.Cuts) {
		ps.fail(fmt.Errorf("cluster: worker %s granted unknown cut edge %d", h.w.addr, m.Edge))
		return
	}
	c := ps.plan.Cuts[m.Edge]
	if c.To != h.idx {
		ps.fail(fmt.Errorf("cluster: worker %s granted edge %d credits from partition %d, consumer is %d",
			h.w.addr, m.Edge, h.idx, c.To))
		return
	}
	ps.mu.Lock()
	if !h.current() {
		ps.mu.Unlock()
		return
	}
	h.progressLocked()
	es := &ps.cuts[m.Edge]
	es.rawAcks += uint64(m.N)
	n := uint64(m.N)
	if s := es.swallow; s > 0 {
		if s > n {
			s = n
		}
		es.swallow -= s
		n -= s
	}
	es.acked += n
	t := ps.halves[c.From]
	ps.mu.Unlock()
	if n > 0 {
		m.SID, m.N = t.sid, uint32(n)
		t.enqueueRelay(m)
	}
}

// onClosed handles a worker's SessionClosed notice. A reported failure
// fails the whole session; clean closes are counted, and the session
// completes once every half reported — with the drain notice if a drain
// forced the close, ErrSessionClosed otherwise.
func (h *partitionHalf) onClosed(m *wire.SessionClosed) {
	ps := h.ps
	if m.Err != "" {
		ps.fail(fmt.Errorf("cluster: worker %s closed partition %d: %s", h.w.addr, h.idx, m.Err))
		return
	}
	ps.mu.Lock()
	if ps.ended {
		ps.mu.Unlock()
		return
	}
	ps.closedN++
	allClosed := ps.closedN == len(ps.plan.Partitions)
	noFeed := ps.noFeed
	ps.mu.Unlock()
	if !allClosed {
		return
	}
	// Every half delivered its results on its own connection before its
	// SessionClosed, so the merge is complete by now.
	err := error(runtime.ErrSessionClosed)
	if noFeed != nil {
		err = noFeed
	}
	ps.terminate(err, false)
}

// creditsOut is the half's share of the /metrics credits-in-flight
// gauge: frames the session has fed that have not yet come back as a
// merged result, charged to every worker currently hosting a partition
// of it.
func (h *partitionHalf) creditsOut() int {
	ps := h.ps
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if !h.current() {
		return 0
	}
	return int(ps.fed - ps.completed)
}

// demandCyc weights each half with the whole pipeline's demand — the
// keyless bin-packing weight. A split session's kernels span
// workers, but the analysis prices the graph as a unit and conservative
// packing beats overcommit. Must not block: it is called under the
// owning worker's lock.
func (h *partitionHalf) demandCyc() float64 { return h.ps.p.CyclesPerSec }

// validateInputs applies the runtime's feed-time checks locally so bad
// frames bounce at the frontend without a round trip, with the same
// ErrBadFrame tag the HTTP layer maps to 400.
func validateInputs(p *serve.Pipeline, inputs map[string]frame.Window) error {
	g := p.Graph()
	for name, w := range inputs {
		n := g.Node(name)
		if n == nil || n.Kind != graph.KindInput {
			return fmt.Errorf("%w: unknown input %q", runtime.ErrBadFrame, name)
		}
		if w.W != n.FrameSize.W || w.H != n.FrameSize.H {
			return fmt.Errorf("%w: input %q is %dx%d, want %dx%d",
				runtime.ErrBadFrame, name, w.W, w.H, n.FrameSize.W, n.FrameSize.H)
		}
		if want := n.Output("out").Elem; w.Kind != want {
			return fmt.Errorf("%w: input %q carries %s samples, declared %s",
				runtime.ErrBadFrame, name, w.Kind, want)
		}
	}
	return nil
}

// serveReleaseOutputs returns a result's pooled windows, and the lists
// that carry them, to the arena.
func serveReleaseOutputs(outs map[string][]frame.Window) {
	for _, ws := range outs {
		frame.ReleaseList(ws)
	}
}

func releaseResult(m *wire.Result) {
	for _, out := range m.Outputs {
		frame.ReleaseList(out.Wins)
	}
}

var _ serve.SessionHandle = (*session)(nil)
