package cluster

// Recovery and live migration. When a worker of a session dies, drains,
// or goes silent with frames in flight, only the partition it hosted
// moves: the frontend picks a survivor, re-places the partition there
// with OpenPartition carrying the session's resume watermarks, replays
// its feed history and inbound cut-edge logs paced by the fresh
// instance's credit returns, and swallows the replayed instance's
// re-acknowledgements so the surviving producers' credit windows stay
// consistent; logged cut-edge frames replay as they were received.
// Downstream, the worker suppresses results below the delivery
// watermark and the frontend drops anything that still slips through —
// at-most-once, byte-identical to a session that never lost the worker.
// A session that runs whole is the one-partition case: no cut edges to
// replay, everything else the same.
//
// Correctness leans on two determinism facts: generators key on the
// absolute frame index, so a replayed feed history reproduces the exact
// stream; and the worker's edge-credit flushes fire at fixed
// consumption counts, so the re-placed consumer re-flushes exactly the
// credits the dead instance had flushed — the swallow debt always
// drains to zero and the replay can hand over to live relay.

import (
	"errors"
	"fmt"
	"time"

	"blockpar/internal/runtime"
	"blockpar/internal/serve"
	"blockpar/internal/wire"
)

// errSessionEnded aborts a replay whose session terminated concurrently
// (client close timeout, dispatcher shutdown).
var errSessionEnded = errors.New("session ended during recovery")

// beginRecoveryLocked flags partition idx as recovering: feeds pause
// (TryFeed reports ErrQueueFull) and every cut edge feeding idx starts
// buffering into its log instead of relaying. Caller holds ps.mu.
func (ps *session) beginRecoveryLocked(idx int) {
	ps.recovering = true
	ps.recoveringIdx = idx
	for i := range ps.plan.Cuts {
		if ps.plan.Cuts[i].To == idx {
			ps.cuts[i].buffering = true
		}
	}
}

// connLost reacts to a partition's worker connection dying. One
// partition down recovers in place; a second failure mid-recovery, or a
// session past its replay budget, ends the session with a typed error.
func (h *partitionHalf) connLost(cause error) {
	ps := h.ps
	ps.mu.Lock()
	if ps.ended || h.idx >= len(ps.halves) || ps.halves[h.idx] != h {
		// Already over, or not (or no longer) the installed half: a
		// placement still in flight reports its own failure.
		ps.mu.Unlock()
		return
	}
	var err error
	switch {
	case !ps.placed():
		// Still co-scheduling: place surfaces this as a placement
		// failure, not a dead handle.
		err = fmt.Errorf("%w: partition %d: %v", serve.ErrSessionLost, h.idx, cause)
	case ps.closeSent && ps.completed == ps.fed:
		// Everything fed was delivered and the close was already sent;
		// only a SessionClosed ack died with the worker. That is a clean
		// shutdown, not a lost session.
		err = runtime.ErrSessionClosed
	case ps.recovering && ps.recoveringIdx == h.idx:
		// The replacement under recovery died; the replay goroutines
		// observe the dead connection and the retry loop moves on.
		ps.mu.Unlock()
		return
	case ps.recovering:
		err = fmt.Errorf("%w: partition %d lost while partition %d recovers: %v",
			serve.ErrSessionLost, h.idx, ps.recoveringIdx, cause)
	case ps.logFull:
		err = fmt.Errorf("%w: partition %d on %s: %v (session past its replay budget)",
			serve.ErrSessionLost, h.idx, h.w.addr, cause)
	}
	if err != nil {
		ps.mu.Unlock()
		ps.fail(err)
		return
	}
	ps.beginRecoveryLocked(h.idx)
	ps.mu.Unlock()
	h.stopRelay()
	go ps.recoverPartition(h.idx, cause, false)
}

// rehomeLocked moves a live partition off its worker: the resident
// instance is aborted and the ordinary recovery path rebuilds it on a
// survivor. Caller holds ps.mu, which rehomeLocked releases.
func (h *partitionHalf) rehomeLocked(cause error, migration bool) {
	ps := h.ps
	ps.beginRecoveryLocked(h.idx)
	ps.mu.Unlock()
	h.retire(cause.Error())
	go ps.recoverPartition(h.idx, cause, migration)
}

// drainClose reacts to this partition's worker draining. The preferred
// path is a live migration, invisible to the client. When the session
// cannot migrate — replay budget spent, or no surviving worker to land
// on — it falls back to quiesce-and-close: refuse further feeds, then
// close so everything already fed flushes.
func (h *partitionHalf) drainClose() {
	ps := h.ps
	// The probe touches worker locks that order before ps.mu, so look
	// for a destination first and validate the session state after.
	dest := ps.pickRecoveryWorker(h.idx)
	ps.mu.Lock()
	if !h.current() || ps.closeSent || ps.recovering {
		// Closing already, or a recovery is in flight — another
		// partition's, or this one's when /drain-worker and the worker's
		// Goaway both land. Closing here would end the client's stream
		// early; migrateNextDraining picks this partition up once the
		// running recovery lands.
		ps.mu.Unlock()
		return
	}
	if !ps.logFull && dest != nil {
		h.rehomeLocked(fmt.Errorf("cluster: worker %s at %s draining", h.w.name, h.w.addr), true)
		return
	}
	ps.noFeed = fmt.Errorf("cluster: worker %s at %s is draining", h.w.name, h.w.addr)
	ps.closeSent = true
	ps.mu.Unlock()
	ps.sendClose()
}

// stallWatch runs for the session's lifetime and recovers it from
// silent stalls — the failure mode connection health checks cannot
// see: a frame lost in transit on an otherwise-healthy connection, or
// a worker that wedged without dying. With frames in flight and no
// progress from any half (no result, credit, or cut-edge frame) within
// StallTimeout, the quietest partition is re-homed exactly as if its
// connection had died: the replay resends whatever was lost. A
// re-homed half starts with a fresh clock, so if the loss was really
// upstream of it the next firing moves on to the next-quietest.
func (ps *session) stallWatch() {
	timeout := ps.d.opts.StallTimeout
	interval := timeout / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ps.done:
			return
		case <-ps.d.closed:
			return
		case <-t.C:
		}
		ps.mu.Lock()
		if ps.ended || ps.recovering {
			ps.mu.Unlock()
			continue
		}
		if ps.completed >= ps.fed {
			ps.lastProgress = time.Now() // idle: nothing is owed
		}
		if time.Since(ps.lastProgress) <= timeout {
			ps.mu.Unlock()
			continue
		}
		h := ps.halves[0]
		for _, x := range ps.halves[1:] {
			if x.lastProgress.Before(h.lastProgress) {
				h = x
			}
		}
		cause := fmt.Errorf("cluster: worker %s stalled: no progress on %d in-flight frames within %v",
			h.w.addr, ps.fed-ps.completed, timeout)
		if ps.logFull {
			ps.mu.Unlock()
			ps.fail(fmt.Errorf("%w: %v (session past its replay budget)", serve.ErrSessionLost, cause))
			return
		}
		h.rehomeLocked(cause, false)
	}
}

// recoverPartition re-homes partition idx: pick a replacement worker,
// reopen and replay, retry until the failover window closes — then shed
// with a typed 503. Runs on its own goroutine; migration says whether
// this counts as a live migration (drain) or a failover (crash, stall)
// in /metrics.
func (ps *session) recoverPartition(idx int, cause error, migration bool) {
	d := ps.d
	deadline := time.Now().Add(d.opts.FailoverTimeout)
	if !ps.deadline.IsZero() && ps.deadline.Before(deadline) {
		deadline = ps.deadline
	}
	lastErr := cause
	for {
		select {
		case <-ps.done:
			return
		case <-d.closed:
			ps.fail(fmt.Errorf("%w: dispatcher closed during partition recovery: %v",
				serve.ErrSessionLost, lastErr))
			return
		default:
		}
		if time.Now().After(deadline) {
			d.shedTotal.Add(1)
			ps.fail(fmt.Errorf("%w: %w: partition %d not recovered within failover window: %v",
				serve.ErrSessionLost, serve.ErrUnavailable, idx, lastErr))
			return
		}
		w := ps.pickRecoveryWorker(idx)
		if w == nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		err := ps.reopenOn(w, idx, deadline)
		if err == nil {
			switch {
			case migration:
				d.sessionsMigrated.Add(1)
			case len(ps.plan.Partitions) == 1:
				d.sessionsFailedOver.Add(1)
			default:
				d.partitionsFailedOver.Add(1)
			}
			ps.migrateNextDraining()
			return
		}
		if errors.Is(err, errSessionEnded) {
			return
		}
		lastErr = err
	}
}

// migrateNextDraining rolls a drain across co-located partitions.
// Recoveries are serialized per session, so when two partitions share
// a draining worker only the first drainClose can start moving; the
// second returns and would otherwise sit until the worker's drain
// deadline force-aborts it as abandoned work. Each completed recovery
// therefore kicks the next half still resident on a draining worker.
// Progress is monotone — pickRecoveryWorker never places on a
// draining worker — so the roll terminates.
func (ps *session) migrateNextDraining() {
	ps.mu.Lock()
	halves := append([]*partitionHalf(nil), ps.halves...)
	ps.mu.Unlock()
	for _, h := range halves {
		h.w.mu.Lock()
		draining := h.w.draining
		h.w.mu.Unlock()
		if draining {
			h.drainClose()
			return
		}
	}
}

// edgeAttempt snapshots one outbound cut edge's watermarks at the start
// of a recovery attempt, under ps.mu, so the OpenPartition frame and
// the replay agree on one consistent cut of the stream state.
type edgeAttempt struct {
	credit  uint32 // initial window granted to the re-placed producer
	skip    uint64 // items the new producer re-discards
	ackedAt uint64 // credits relayed so far; install flushes the delta
}

// reopenOn runs one recovery attempt against worker w: snapshot,
// reopen, install, replay, hand over. Any error (except a concurrent
// session end) retires the half-built replacement and the caller
// retries elsewhere.
func (ps *session) reopenOn(w *workerRef, idx int, deadline time.Time) error {
	ps.mu.Lock()
	if ps.ended {
		ps.mu.Unlock()
		return errSessionEnded
	}
	if ps.logFull {
		ps.mu.Unlock()
		return fmt.Errorf("cluster: replay log released during recovery")
	}
	marks := &resumeMarks{results: ps.delivered[idx], edges: make(map[uint32]edgeAttempt)}
	var inEdges []int
	for i := range ps.plan.Cuts {
		c := &ps.plan.Cuts[i]
		es := &ps.cuts[i]
		switch idx {
		case c.To:
			// The lost partition consumed this edge: replay the full log
			// and swallow the re-acknowledgements the producer was already
			// credited for. A fresh attempt re-arms both (a previous
			// attempt may have flipped the edge or drained part of the
			// debt before failing).
			es.buffering = true
			es.swallow = es.acked
			if es.eosLogged {
				es.eosSent = false
			}
			inEdges = append(inEdges, i)
		case c.From:
			// The lost partition produced this edge: the new instance
			// re-produces from the start, discards the already-relayed
			// prefix, and inherits the live window minus what the
			// consumer still holds.
			marks.edges[c.ID] = edgeAttempt{
				credit:  uint32(uint64(c.Credit) - (es.sent - es.acked)),
				skip:    es.sent,
				ackedAt: es.acked,
			}
		}
	}
	feedTotal := ps.fed
	ps.mu.Unlock()

	h2, err := w.placePartition(ps, idx, marks)
	if err != nil {
		return err
	}

	// Install: from here the half receives results, credits, and edge
	// traffic like any other; out-edge credits that accrued between the
	// snapshot and now are flushed as a delta so nothing is lost to the
	// dead half's stopped relay queue.
	ps.mu.Lock()
	if ps.ended {
		ps.mu.Unlock()
		h2.retire("session ended during recovery")
		return errSessionEnded
	}
	ps.halves[idx] = h2
	var grants []*wire.EdgeCredit
	for i := range ps.plan.Cuts {
		c := &ps.plan.Cuts[i]
		if c.From != idx {
			continue
		}
		if delta := ps.cuts[i].acked - marks.edges[c.ID].ackedAt; delta > 0 {
			grants = append(grants, &wire.EdgeCredit{SID: h2.sid, Edge: c.ID, N: uint32(delta)})
		}
	}
	ps.mu.Unlock()
	for _, g := range grants {
		h2.enqueueRelay(g)
	}

	// Replay the feed history and each inbound cut edge concurrently:
	// they are independent in-order streams, each paced by its own
	// credit returns, and the partition may need both to make progress.
	errc := make(chan error, len(inEdges)+1)
	go func() { errc <- ps.replayFeeds(h2, feedTotal, deadline) }()
	for _, ei := range inEdges {
		ei := ei
		go func() { errc <- ps.replayEdge(h2, ei, deadline) }()
	}
	var firstErr error
	for i := 0; i < len(inEdges)+1; i++ {
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		if !errors.Is(firstErr, errSessionEnded) {
			h2.retire("partition recovery attempt failed")
		}
		return firstErr
	}

	ps.mu.Lock()
	if ps.ended {
		ps.mu.Unlock()
		return errSessionEnded
	}
	ps.recovering = false
	h2.progressLocked()
	closeSent := ps.closeSent
	ps.mu.Unlock()
	if closeSent {
		// The client's Close raced the recovery; sendClose skipped this
		// partition, so deliver the deferred close now that the replay
		// is on the wire.
		ps.sendMu.Lock()
		if err := h2.conn.Write(&wire.CloseSession{SID: h2.sid}); err != nil {
			h2.conn.Close()
		}
		ps.sendMu.Unlock()
	}
	return nil
}

// replayFeeds re-delivers the session's feed history to a re-placed
// partition that owns input nodes. Pacing mirrors the worker's feed
// queue: maxInFlight frames up front, extended by each credit the fresh
// instance returns (h2.credits counts only those — it starts at zero).
// It returns once the instance has worked through everything the
// session had already merged: from there its backlog is within what the
// live window (fed - collected) allows, so resumed feeds cannot overrun
// its queue.
func (ps *session) replayFeeds(h2 *partitionHalf, total int64, deadline time.Time) error {
	owns := false
	for _, idx := range ps.feedParts {
		if idx == h2.idx {
			owns = true
		}
	}
	if !owns {
		return nil
	}
	for seq := int64(0); ; {
		ps.mu.Lock()
		if ps.ended {
			ps.mu.Unlock()
			return errSessionEnded
		}
		if ps.logFull {
			ps.mu.Unlock()
			return fmt.Errorf("cluster: replay log released during recovery")
		}
		if seq == total && h2.credits >= ps.completed {
			ps.mu.Unlock()
			return nil
		}
		if seq == total || seq >= int64(ps.maxInFlight)+h2.credits {
			ps.mu.Unlock()
			if err := h2.waitLive(deadline, "feed replay"); err != nil {
				return err
			}
			continue
		}
		m := &wire.Feed{SID: h2.sid, Seq: seq}
		for _, in := range ps.feedLog[seq].inputs {
			if ps.inputOwner[in.Name] != h2.idx {
				continue
			}
			// Hold an encode reference so a concurrent terminal release
			// cannot poison the samples mid-write.
			in.Win.Retain(1)
			m.Inputs = append(m.Inputs, in)
		}
		ps.mu.Unlock()
		err := h2.conn.Write(m)
		for _, in := range m.Inputs {
			in.Win.Release()
		}
		if err != nil {
			h2.conn.Close()
			return fmt.Errorf("cluster: feed replay to %s: %w", h2.w.addr, err)
		}
		h2.w.framesRouted.Add(1)
		ps.d.framesReplayed.Add(1)
		seq++
	}
}

// replayEdge re-delivers one inbound cut edge's logged frames to the
// re-placed consumer, then flips the edge back to live relay. Frames go
// out whole and verbatim, retargeted to the new instance, as many per
// write as fit in the credits the instance has returned, up to
// edgeBatchItems items: every logged frame was sent against the same
// window and the consumer's deterministic acks, so each one fits once
// the items before it are consumed. The flip fires only when the log is
// exhausted AND the swallow debt is zero: at that point the producer's
// credit window and the new consumer's queue agree, so direct relay
// cannot overflow it.
func (ps *session) replayEdge(h2 *partitionHalf, ei int, deadline time.Time) error {
	c := ps.plan.Cuts[ei]
	ps.mu.Lock()
	window := uint64(c.Credit)
	base := ps.cuts[ei].rawAcks // acks from the fresh instance count from here
	ps.mu.Unlock()
	var frames []wire.EdgeFrame
	var batch []wire.Msg
	next, pos := 0, uint64(0) // the next logged frame, and the items before it
	for {
		ps.mu.Lock()
		if ps.ended {
			ps.mu.Unlock()
			return errSessionEnded
		}
		if ps.logFull {
			ps.mu.Unlock()
			return fmt.Errorf("cluster: replay log released during recovery")
		}
		es := &ps.cuts[ei]
		allowed := window + (es.rawAcks - base)
		frames = frames[:0]
		end := pos
		for _, s := range es.log[next:] {
			n := uint64(s.N)
			if end+n > allowed || (len(frames) > 0 && end+n > pos+edgeBatchItems) {
				break
			}
			// Hold a write reference so a concurrent terminal release
			// cannot poison the slab mid-write.
			s.Retain(1)
			frames = append(frames, wire.EdgeFrame{SID: h2.sid, Edge: c.ID, Slab: s})
			end += n
		}
		if len(frames) > 0 {
			es.sent = end
			ps.mu.Unlock()
			batch = batch[:0]
			for i := range frames {
				batch = append(batch, &frames[i])
			}
			err := h2.conn.Write(batch...)
			for _, f := range frames {
				f.Slab.Release()
			}
			if err != nil {
				h2.conn.Close()
				return fmt.Errorf("cluster: edge %d replay to %s: %w", c.ID, h2.w.addr, err)
			}
			next += len(frames)
			pos = end
			continue
		}
		if next == len(es.log) && es.swallow == 0 {
			// Caught up: every logged frame re-delivered, every stale ack
			// absorbed. Flip to direct relay atomically with the last
			// replayed write already on the wire — the producer's read
			// loop sees buffering false only after this unlock.
			es.buffering = false
			sendEOS := es.eosLogged && !es.eosSent
			if sendEOS {
				es.eosSent = true
			}
			ps.mu.Unlock()
			if sendEOS {
				if err := h2.conn.Write(&wire.EdgeFrame{SID: h2.sid, Edge: c.ID, EOS: true}); err != nil {
					h2.conn.Close()
					return fmt.Errorf("cluster: edge %d replay to %s: %w", c.ID, h2.w.addr, err)
				}
			}
			return nil
		}
		ps.mu.Unlock()
		if err := h2.waitLive(deadline, fmt.Sprintf("edge %d replay", c.ID)); err != nil {
			return err
		}
	}
}

// waitLive sleeps one pacing tick, failing fast when the replacement's
// connection died under the replay or the recovery deadline passed.
func (h *partitionHalf) waitLive(deadline time.Time, what string) error {
	h.w.mu.Lock()
	alive := h.w.conn == h.conn
	h.w.mu.Unlock()
	if !alive {
		return fmt.Errorf("cluster: worker %s lost during %s", h.w.addr, what)
	}
	if time.Now().After(deadline) {
		return fmt.Errorf("cluster: %s to %s stalled past the failover window", what, h.w.addr)
	}
	time.Sleep(time.Millisecond)
	return nil
}
