package cluster

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blockpar/internal/placement"
	"blockpar/internal/registry"
	"blockpar/internal/serve"
)

// DispatcherOptions tunes the frontend side of the cluster. The zero
// value is production-ready; tests shrink the intervals.
type DispatcherOptions struct {
	// Dial opens a connection to a worker address (default net.Dial
	// over TCP with a 5s timeout).
	Dial func(addr string) (net.Conn, error)
	// PingInterval paces worker health probes (default 2s); a worker
	// that misses pongs for PingTimeout (default 3×PingInterval) is
	// declared dead and reconnected.
	PingInterval time.Duration
	PingTimeout  time.Duration
	// ReconnectMin/Max bound the exponential backoff between dial
	// attempts (defaults 100ms and 5s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// OpenTimeout bounds pipeline-ensure and session-open round trips,
	// which may include a worker-side compile (default 30s).
	OpenTimeout time.Duration
	// CloseTimeout bounds the wait for a worker to drain and
	// acknowledge a session close (default 10s).
	CloseTimeout time.Duration
	// FailoverTimeout bounds one partition's recovery after its worker
	// dies: finding a surviving worker, reopening, and replaying the
	// logged inputs (default 30s). A session deadline shortens it.
	FailoverTimeout time.Duration
	// ReplayBudget caps the bytes a session retains for recovery replay:
	// its explicit input windows plus every cut edge's item stream
	// (default 32 MiB). Generated inputs cost nothing — the worker
	// regenerates them from the frame index. A session past its budget
	// stops being recoverable: a worker dying under it becomes a typed
	// serve.ErrSessionLost instead of a replay. Negative disables
	// recovery entirely.
	ReplayBudget int64
	// StallTimeout bounds how long a session with frames in flight may
	// go without any progress (results, credits or cut-edge traffic
	// arriving from any of its workers) before the dispatcher declares
	// the quietest partition wedged and re-homes it (default 30s;
	// negative disables). This is the recovery for messages lost on an
	// otherwise-healthy connection — a dropped frame, a silently stuck
	// worker — which connection-level health checks can never see.
	StallTimeout time.Duration
	// Partitions is the most workers one session is split across
	// (default 1: every session runs whole on one worker). An open plans
	// the pipeline's compiled graph with internal/placement onto
	// min(Partitions, placeable workers) partitions — a plan may collapse
	// to fewer — and co-schedules one partition per worker, with the cut
	// edges relayed through the dispatcher (see docs/cluster.md
	// "Sessions"). Recovery is per partition whatever the count.
	Partitions int
}

func (o *DispatcherOptions) defaults() {
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	if o.PingInterval <= 0 {
		o.PingInterval = 2 * time.Second
	}
	if o.PingTimeout <= 0 {
		o.PingTimeout = 3 * o.PingInterval
	}
	if o.ReconnectMin <= 0 {
		o.ReconnectMin = 100 * time.Millisecond
	}
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = 5 * time.Second
	}
	if o.OpenTimeout <= 0 {
		o.OpenTimeout = 30 * time.Second
	}
	if o.CloseTimeout <= 0 {
		o.CloseTimeout = 10 * time.Second
	}
	if o.FailoverTimeout <= 0 {
		o.FailoverTimeout = 30 * time.Second
	}
	if o.ReplayBudget == 0 {
		o.ReplayBudget = 32 << 20
	}
	if o.StallTimeout == 0 {
		o.StallTimeout = 30 * time.Second
	}
}

// Dispatcher places sessions on cluster workers and proxies their
// frames. It implements serve.Backend, so bpserve swaps it in for the
// in-process executor without the HTTP layer noticing.
type Dispatcher struct {
	opts    DispatcherOptions
	nextSID atomic.Uint64

	// Membership, changed only by AddWorker/RemoveWorker (a fixed list
	// adds its members once; a fleet subscription as events arrive), so
	// every reader goes through snapshot().
	wmu         sync.RWMutex
	workers     []*workerRef
	byName      map[string]*workerRef // member name → ref
	ring        *registry.Ring        // consistent-hash order for keyed sessions
	unsubscribe func()

	// Admission accounting: cycles/sec admitted by this frontend,
	// compared against the members' declared capacity.
	admitMu      sync.Mutex
	admittedCyc  float64
	admitRejects atomic.Int64

	// plans caches one placement plan per (pipeline ID, partition count).
	planMu sync.Mutex
	plans  map[string]*placement.Plan

	// Recovery counters, surfaced by BackendStats under /metrics: a
	// crash or stall recovery counts under sessions (one-partition
	// plans) or partitions (split plans), a planned move under migrated.
	sessionsFailedOver   atomic.Int64
	partitionsFailedOver atomic.Int64
	sessionsMigrated     atomic.Int64
	framesReplayed       atomic.Int64
	shedTotal            atomic.Int64

	closeOnce sync.Once
	closed    chan struct{}
}

func newDispatcher(opts DispatcherOptions) *Dispatcher {
	opts.defaults()
	return &Dispatcher{
		opts:        opts,
		byName:      make(map[string]*workerRef),
		ring:        registry.NewRing(0),
		plans:       make(map[string]*placement.Plan),
		closed:      make(chan struct{}),
		unsubscribe: func() {},
	}
}

// NewDispatcher builds a dispatcher over a fixed worker list: a fleet
// whose membership never changes, each member named by its address
// and declaring no capacity, so admission accounts demand but never
// refuses. The managers connect in the background; use WaitReady to
// block until the cluster can place sessions.
func NewDispatcher(addrs []string, opts DispatcherOptions) *Dispatcher {
	d := newDispatcher(opts)
	for _, addr := range addrs {
		d.AddWorker(addr, addr, 0)
	}
	return d
}

// NewRegisteredDispatcher builds a dispatcher whose membership follows
// a registry.Fleet: a worker registering adds a managed connection and
// a ring member with its declared capacity, a deregistration or lease
// expiry removes both — and cancels the reconnect loop, so a drained
// worker is never pinged at a dead address. Placement, admission,
// recovery and replay are those of a fixed list; a drain arrives as
// the worker's own Goaway, exactly as on a fixed list.
func NewRegisteredDispatcher(fleet *registry.Fleet, opts DispatcherOptions) *Dispatcher {
	d := newDispatcher(opts)
	d.unsubscribe = fleet.Subscribe(d.onMembership)
	return d
}

// onMembership applies one fleet event under the fleet's lock. Neither
// AddWorker nor RemoveWorker blocks — each touches only the member
// table and starts or halts a manager — and no dispatcher path calls
// the fleet, so the only lock order is fleet, then d.wmu.
func (d *Dispatcher) onMembership(ev registry.Event) {
	switch ev.Kind {
	case registry.EventJoin:
		d.AddWorker(ev.Member.Name, ev.Member.Addr, ev.Member.CyclesPerSec)
	case registry.EventLeave:
		d.RemoveWorker(ev.Member.Name)
	}
}

// snapshot returns the current worker set; safe to iterate without the
// membership lock.
func (d *Dispatcher) snapshot() []*workerRef {
	d.wmu.RLock()
	defer d.wmu.RUnlock()
	return append([]*workerRef(nil), d.workers...)
}

// AddWorker adds a member and starts its connection manager. A member
// already present is left alone: a fleet announces a changed identity
// as Leave then Join, and a fixed list names each member by its
// address.
func (d *Dispatcher) AddWorker(member, addr string, capacityCyc float64) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if d.byName[member] != nil {
		return
	}
	w := &workerRef{d: d, addr: addr, member: member, capacity: capacityCyc, stop: make(chan struct{})}
	d.workers = append(d.workers, w)
	d.byName[member] = w
	d.ring.Add(member)
	go w.manage()
}

// RemoveWorker drops a member from placement and cancels its reconnect
// loop. A live connection is not torn down: in-flight sessions drain
// through the worker's own Goaway path (or fail over when it dies),
// but once the connection ends the manager exits instead of redialing.
func (d *Dispatcher) RemoveWorker(member string) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	w := d.byName[member]
	if w == nil {
		return
	}
	delete(d.byName, member)
	d.workers = slices.DeleteFunc(d.workers, func(x *workerRef) bool { return x == w })
	d.ring.Remove(member)
	w.halt()
}

// DrainWorker quiesces one worker from the frontend side: no further
// placements land on it and every resident session migrates to a
// survivor (falling back to a quiesce-and-close when it cannot). The
// worker process itself keeps running — this is the frontend half of a
// planned drain, reached from the worker's own Goaway or the
// /drain-worker admin endpoint. A fixed list names each member by its
// address.
func (d *Dispatcher) DrainWorker(member string) error {
	d.wmu.RLock()
	w := d.byName[member]
	d.wmu.RUnlock()
	if w == nil {
		return fmt.Errorf("cluster: unknown worker %q", member)
	}
	w.drain()
	return nil
}

// PlaceableWorkers reports how many members can take a session right
// now.
func (d *Dispatcher) PlaceableWorkers() int {
	n := 0
	for _, w := range d.snapshot() {
		if w.placeable() {
			n++
		}
	}
	return n
}

// PlacementFor reports the ring's preference order for a session key —
// every frontend with the same members computes the same answer.
func (d *Dispatcher) PlacementFor(key string) []string {
	d.wmu.RLock()
	defer d.wmu.RUnlock()
	return d.ring.LookupN(key, d.ring.Len())
}

// WaitReady blocks until at least one worker is placeable, or the
// timeout expires.
func (d *Dispatcher) WaitReady(timeout time.Duration) error {
	return d.waitPlaceable(1, timeout)
}

// waitPlaceable blocks until at least n members are placeable, the
// timeout expires, or the dispatcher closes.
func (d *Dispatcher) waitPlaceable(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		up := d.PlaceableWorkers()
		if up >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d/%d workers placeable within %v", up, n, timeout)
		}
		select {
		case <-d.closed:
			return errors.New("cluster: dispatcher closed")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Readiness implements serve.ReadinessReporter: "ok" with every worker
// placeable, "degraded" while sessions still place but capacity is
// reduced (workers down or draining), "unavailable" when nothing can
// place.
func (d *Dispatcher) Readiness() serve.Readiness {
	workers := d.snapshot()
	up := 0
	for _, w := range workers {
		if w.placeable() {
			up++
		}
	}
	total := len(workers)
	switch {
	case total == 0:
		return serve.Readiness{Status: "unavailable", Detail: "no cluster workers"}
	case up == 0:
		return serve.Readiness{
			Status: "unavailable",
			Detail: fmt.Sprintf("0/%d cluster workers placeable", total),
		}
	case up < total:
		return serve.Readiness{
			Status: "degraded",
			Detail: fmt.Sprintf("%d/%d cluster workers placeable", up, total),
		}
	}
	return serve.Readiness{Status: "ok"}
}

// Close tears down every worker connection; in-flight sessions fail.
func (d *Dispatcher) Close() error {
	d.closeOnce.Do(func() {
		close(d.closed)
		d.unsubscribe()
		for _, w := range d.snapshot() {
			w.halt()
			w.mu.Lock()
			c := w.conn
			w.mu.Unlock()
			if c != nil {
				c.Close()
			}
		}
	})
	return nil
}

// WorkerStats is one worker's row in /metrics.
type WorkerStats struct {
	Addr            string  `json:"addr"`
	Name            string  `json:"name,omitempty"`
	Member          string  `json:"member,omitempty"`
	State           string  `json:"state"`
	Draining        bool    `json:"draining,omitempty"`
	Sessions        int     `json:"sessions"`
	CapacityCyc     float64 `json:"capacity_cycles_per_sec,omitempty"`
	DemandCyc       float64 `json:"demand_cycles_per_sec,omitempty"`
	FramesRouted    int64   `json:"frames_routed"`
	ResultsReceived int64   `json:"results_received"`
	CreditsInFlight int     `json:"credits_in_flight"`
	Reconnects      int64   `json:"reconnects"`
	// ConnFlushes counts the writes issued to the worker's connection;
	// under load several frames share one (see wire.Conn.Write).
	ConnFlushes int64 `json:"conn_flushes"`
}

// SessionStats is one open session's row in /metrics: the worker
// hosting each partition, in plan order, how many partitions execute
// it, and the bytes its recovery replay log retains.
type SessionStats struct {
	Pipeline    string   `json:"pipeline"`
	Workers     []string `json:"workers"`
	Partitions  int      `json:"partitions"`
	ReplayBytes int64    `json:"replay_bytes"`
	// ReplayLost reports that the session can no longer recover a lost
	// partition: its replay log outgrew ReplayBudget and was released
	// (or recovery is disabled), so a worker loss now ends the session.
	ReplayLost bool `json:"replay_lost"`
	// Cut-edge traffic relayed between the session's partitions so far:
	// edge frames, the items in them, and those items' sample bytes.
	RelayFrames int64 `json:"relay_frames"`
	RelayItems  int64 `json:"relay_items"`
	RelayBytes  int64 `json:"relay_bytes"`
}

// BackendStats implements serve.StatsReporter: the per-worker gauges
// surfaced under "cluster" in /metrics, plus one row per open session.
func (d *Dispatcher) BackendStats() any {
	workers := d.snapshot()
	rows := make([]WorkerStats, 0, len(workers))
	seen := make(map[*session]bool)
	var sessions []SessionStats
	for _, w := range workers {
		rows = append(rows, w.stats())
		for _, h := range w.residents() {
			if !seen[h.ps] {
				seen[h.ps] = true
				sessions = append(sessions, h.ps.row())
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Addr < rows[j].Addr })
	sort.Slice(sessions, func(i, j int) bool {
		if sessions[i].Pipeline != sessions[j].Pipeline {
			return sessions[i].Pipeline < sessions[j].Pipeline
		}
		return sessions[i].Partitions < sessions[j].Partitions
	})
	d.admitMu.Lock()
	admitted := d.admittedCyc
	d.admitMu.Unlock()
	return map[string]any{
		"workers":                rows,
		"sessions":               sessions,
		"sessions_failed_over":   d.sessionsFailedOver.Load(),
		"partitions_failed_over": d.partitionsFailedOver.Load(),
		"sessions_migrated":      d.sessionsMigrated.Load(),
		"frames_replayed":        d.framesReplayed.Load(),
		"shed_total":             d.shedTotal.Load(),
		"fleet": map[string]any{
			"members":                 len(workers),
			"capacity_cycles_per_sec": d.fleetCapacity(),
			"admitted_cycles_per_sec": admitted,
			"admission_rejects":       d.admitRejects.Load(),
		},
	}
}
