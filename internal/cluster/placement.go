package cluster

// Placement and admission: Open prices a session against the members'
// declared capacity, plans the pipeline's compiled graph onto as many
// partitions as the fleet and DispatcherOptions.Partitions allow, and
// co-schedules partition i on the i-th distinct candidate worker,
// all-or-nothing. A session that runs whole is the one-partition plan.

import (
	"fmt"
	"sort"

	"blockpar/internal/placement"
	"blockpar/internal/serve"
)

// Open implements serve.Backend. With no placeable worker it sheds with
// serve.ErrUnavailable (HTTP 503); a healthy fleet whose declared
// capacity is spoken for rejects with serve.ErrOverloaded (HTTP 429).
func (d *Dispatcher) Open(p *serve.Pipeline, opts serve.OpenOptions) (serve.SessionHandle, error) {
	select {
	case <-d.closed:
		return nil, fmt.Errorf("%w: dispatcher closed", serve.ErrUnavailable)
	default:
	}
	admitted, err := d.admit(p)
	if err != nil {
		return nil, err
	}
	ps, err := d.place(p, opts, admitted)
	if err != nil {
		d.shedTotal.Add(1)
		return nil, fmt.Errorf("%w: %v", serve.ErrUnavailable, err)
	}
	return ps, nil
}

// admit is admission control: the new session's projected demand — Σ
// over its nodes of analysis cycles/sec — is held against everything
// this frontend already admitted. When members declare capacity it must
// fit in what is free; members that declare none (a fixed worker list)
// are never full. It returns the cycles/sec now held for the session;
// whoever ends the session (or fails to place it) returns them through
// releaseAdmission.
func (d *Dispatcher) admit(p *serve.Pipeline) (float64, error) {
	demand := p.CyclesPerSec
	capacity := d.fleetCapacity()
	d.admitMu.Lock()
	defer d.admitMu.Unlock()
	if capacity > 0 && demand > 0 && d.admittedCyc+demand > capacity {
		d.admitRejects.Add(1)
		return 0, fmt.Errorf("%w: pipeline %s needs %.3g cycles/s, fleet has %.3g of %.3g free",
			serve.ErrOverloaded, p.ID, demand, capacity-d.admittedCyc, capacity)
	}
	d.admittedCyc += demand
	return demand, nil
}

// releaseAdmission returns a session's admitted demand to the pool.
func (d *Dispatcher) releaseAdmission(cyc float64) {
	d.admitMu.Lock()
	d.admittedCyc -= cyc
	if d.admittedCyc < 0 {
		d.admittedCyc = 0
	}
	d.admitMu.Unlock()
}

// fleetCapacity sums the declared cycles/sec of every current member.
// Membership — not momentary connectivity — defines capacity: a worker
// mid-reconnect still holds its lease and its share.
func (d *Dispatcher) fleetCapacity() float64 {
	total := 0.0
	for _, w := range d.snapshot() {
		w.mu.Lock()
		total += w.capacity
		w.mu.Unlock()
	}
	return total
}

// place plans and co-schedules one session. The split spans as many
// distinct candidates as the fleet has right now, capped at the
// configured partition count — a degraded fleet gets a shallower split,
// down to a whole session on one worker, instead of a refusal. A
// candidate that refuses its partition is skipped for the next unused
// one; when the candidates run out, every already-opened partition is
// torn down. The session owns the admission hold from construction, so
// its single termination funnel returns it on every path.
func (d *Dispatcher) place(p *serve.Pipeline, opts serve.OpenOptions, admitted float64) (*session, error) {
	cands := d.candidates(p, opts)
	n := d.opts.Partitions
	if n < 1 {
		n = 1
	}
	if n > len(cands) {
		n = len(cands)
	}
	if n == 0 {
		d.releaseAdmission(admitted)
		return nil, fmt.Errorf("no healthy cluster worker")
	}
	plan, err := d.plan(p, n)
	if err != nil {
		d.releaseAdmission(admitted)
		return nil, fmt.Errorf("cluster: %w", err)
	}
	ps := newSession(d, p, plan, opts, admitted)
	var lastErr error
	for i := range plan.Partitions {
		var h *partitionHalf
		for h == nil && len(cands) > 0 {
			w := cands[0]
			cands = cands[1:]
			var err error
			if h, err = w.placePartition(ps, i, nil); err != nil {
				lastErr = fmt.Errorf("partition %d on %s: %v", i, w.addr, err)
			}
		}
		if h == nil {
			ps.fail(fmt.Errorf("cluster: co-schedule failed: %v", lastErr))
			return nil, lastErr
		}
		// A connection may have died — or a worker reported its partition
		// closed — while the later partitions opened, ending the session
		// before the client ever saw it; surface that as a placement
		// failure, not a dead handle. terminate snapshots ps.halves under
		// the same lock, so a half is torn down exactly once: there if
		// already installed, here if not.
		ps.mu.Lock()
		if ps.ended {
			cause := ps.err
			ps.mu.Unlock()
			h.retire("session ended during co-schedule")
			return nil, fmt.Errorf("partition lost during co-schedule: %v", cause)
		}
		ps.halves = append(ps.halves, h)
		ps.mu.Unlock()
	}
	if d.opts.StallTimeout > 0 {
		go ps.stallWatch()
	}
	// A Goaway that raced the co-schedule found no installed half to move.
	ps.migrateNextDraining()
	return ps, nil
}

// plan returns the pipeline's placement for an n-way split, computing
// it on first use. Plans are cached per (pipeline, n): a split depends
// only on the compiled graph and the target count, and the fixed seed
// keeps every session of a pipeline on the same split at a given
// fleet size. One target needs no annealer: the plan is every node in
// one partition, with nothing cut.
func (d *Dispatcher) plan(p *serve.Pipeline, n int) (*placement.Plan, error) {
	key := fmt.Sprintf("%s/%d", p.ID, n)
	d.planMu.Lock()
	defer d.planMu.Unlock()
	if pl, ok := d.plans[key]; ok {
		return pl, nil
	}
	g, r, m := p.Graph(), p.Analysis(), p.Machine()
	var pl *placement.Plan
	if n == 1 {
		whole := placement.Partition{Target: "w0", CyclesPerSec: p.CyclesPerSec, MemWords: p.MemoryWords}
		for _, nd := range g.Nodes() {
			whole.Nodes = append(whole.Nodes, nd.Name())
		}
		pl = &placement.Plan{Partitions: []placement.Partition{whole}}
	} else {
		var err error
		if pl, err = placement.PlanGraph(g, r, m, placement.EvenFleet(g, r, m, n), 1); err != nil {
			return nil, err
		}
	}
	d.plans[key] = pl
	return pl, nil
}

// candidates orders the placeable workers for one open. Keyed sessions
// walk the consistent-hash ring, so every frontend with the same
// members agrees where a key lives. Keyless sessions bin-pack by
// analysis cycles/sec — best fit: the busiest worker the session still
// fits on, the paper's Section V greedy multiplexing lifted from PEs to
// workers; when nothing fits, most headroom first — with ties going to
// the worker hosting fewer partitions. A member declaring no capacity
// has minus its placed demand left, so on a fixed list this is
// least-loaded first.
func (d *Dispatcher) candidates(p *serve.Pipeline, opts serve.OpenOptions) []*workerRef {
	var refs []*workerRef
	if opts.Key != "" {
		d.wmu.RLock()
		for _, name := range d.ring.LookupN(opts.Key, d.ring.Len()) {
			refs = append(refs, d.byName[name])
		}
		d.wmu.RUnlock()
	} else {
		refs = d.snapshot()
	}
	cands := refs[:0]
	for _, w := range refs {
		if w.placeable() {
			cands = append(cands, w)
		}
	}
	if opts.Key != "" {
		return cands
	}
	demand := p.CyclesPerSec
	sort.SliceStable(cands, func(i, j int) bool {
		ri, rj := cands[i].remainingCyc(), cands[j].remainingCyc()
		fi, fj := ri >= demand, rj >= demand
		switch {
		case fi != fj:
			return fi // workers the session fits on come first
		case ri != rj && fi:
			return ri < rj // tightest fit first packs sessions together
		case ri != rj:
			return ri > rj // nothing fits: most headroom first
		}
		return cands[i].sessionCount() < cands[j].sessionCount()
	})
	return cands
}

// pickRecoveryWorker chooses a lost partition's new home. The plan
// itself never changes — the partition keeps its node set, so every
// structural invariant placement.Validate enforced at planning time
// (dependence edges within a partition, the acyclic partition quotient)
// is placement-independent and holds wherever the partition lands.
// Workers not already hosting another partition of this session are
// preferred to keep the fault domains spread; a shrunken fleet falls
// back to co-locating two partitions on one worker.
func (ps *session) pickRecoveryWorker(idx int) *workerRef {
	resident := make(map[*workerRef]bool)
	ps.mu.Lock()
	for i, h := range ps.halves {
		if i != idx {
			resident[h.w] = true
		}
	}
	ps.mu.Unlock()
	var distinct, shared *workerRef
	var dLoad, sLoad int
	for _, w := range ps.d.snapshot() {
		if !w.placeable() {
			continue
		}
		load := w.sessionCount()
		if !resident[w] {
			if distinct == nil || load < dLoad {
				distinct, dLoad = w, load
			}
		} else if shared == nil || load < sLoad {
			shared, sLoad = w, load
		}
	}
	if distinct != nil {
		return distinct
	}
	return shared
}
