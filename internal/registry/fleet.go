package registry

import (
	"fmt"
	"net"
	"sync"
	"time"

	"blockpar/internal/wire"
)

// Member is one registered worker as the fleet sees it.
type Member struct {
	Name         string
	Addr         string   // data-plane address frontends dial for sessions
	CyclesPerSec float64  // capacity in machine-model cycles/sec (PEs × PE clock)
	Pipelines    []string // compiled-pipeline cache inventory at registration

	// Last heartbeat-reported load; zero until the first heartbeat.
	Sessions         uint32
	LoadCyclesPerSec float64

	// Draining marks a worker that announced planned maintenance:
	// placement skips it and frontends migrate its sessions off.
	Draining bool
}

// EventKind tags a membership event.
type EventKind uint8

const (
	// EventJoin announces a new or replaced member.
	EventJoin EventKind = iota + 1
	// EventLeave announces a deregistered, evicted, or replaced member.
	EventLeave
	// EventDrain announces a member that began draining for planned
	// maintenance: stop placing there and migrate its sessions off. The
	// member stays in the fleet until it deregisters or its lease lapses.
	EventDrain
)

func (k EventKind) String() string {
	switch k {
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	case EventDrain:
		return "drain"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one membership change. Subscribers see a Join for every
// member already present when they subscribed, then live changes in
// order.
type Event struct {
	Kind   EventKind
	Member Member
}

// FleetOptions configures a Fleet.
type FleetOptions struct {
	// Frontend names this fleet's owner in registration handshakes.
	Frontend string
	// Lease is how long a registration stays valid without a
	// heartbeat. Zero selects DefaultLease.
	Lease time.Duration
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// DefaultLease is the membership lease granted to registering workers.
// Heartbeats arrive at a third of it, so a member survives two lost
// heartbeats — transient blips don't churn the placement ring.
const DefaultLease = 5 * time.Second

// Fleet tracks registered workers for one frontend. Workers register
// over the wire (Serve) or directly (Register); membership changes
// fan out to subscribers, which is how the dispatcher learns about
// join/leave churn.
type Fleet struct {
	opts FleetOptions

	mu      sync.Mutex
	members map[string]*fleetMember
	subs    map[*subscription]struct{}
	conns   map[*wire.Conn]struct{}
	closed  bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type fleetMember struct {
	Member
	expires time.Time
}

// NewFleet builds a fleet and starts its lease sweeper.
func NewFleet(opts FleetOptions) *Fleet {
	if opts.Lease <= 0 {
		opts.Lease = DefaultLease
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	f := &Fleet{
		opts:    opts,
		members: make(map[string]*fleetMember),
		subs:    make(map[*subscription]struct{}),
		conns:   make(map[*wire.Conn]struct{}),
		stop:    make(chan struct{}),
	}
	f.wg.Add(1)
	go f.sweep()
	return f
}

// Lease reports the configured membership lease.
func (f *Fleet) Lease() time.Duration { return f.opts.Lease }

// Close stops the sweeper, hangs up registration connections, and
// closes every subscription channel.
func (f *Fleet) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.mu.Lock()
	f.closed = true
	for c := range f.conns {
		c.Close()
	}
	f.conns = map[*wire.Conn]struct{}{}
	subs := make([]*subscription, 0, len(f.subs))
	for s := range f.subs {
		subs = append(subs, s)
	}
	f.subs = map[*subscription]struct{}{}
	f.mu.Unlock()
	for _, s := range subs {
		s.close()
	}
	f.wg.Wait()
}

// Register adds or replaces a member and starts its lease. A
// re-registration with unchanged placement identity (addr, capacity)
// just refreshes the lease and pipeline inventory; a changed
// identity is announced as Leave then Join so consumers re-dial.
func (f *Fleet) Register(m Member) error {
	if m.Name == "" {
		return fmt.Errorf("registry: member name required")
	}
	if m.Addr == "" {
		return fmt.Errorf("registry: member %q has no data-plane address", m.Name)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("registry: fleet closed")
	}
	old, exists := f.members[m.Name]
	fm := &fleetMember{Member: m, expires: time.Now().Add(f.opts.Lease)}
	f.members[m.Name] = fm
	switch {
	case !exists:
		f.opts.Logf("registry: %s joined (addr=%s capacity=%.3g cyc/s, %d pipelines cached)",
			m.Name, m.Addr, m.CyclesPerSec, len(m.Pipelines))
		f.publishLocked(Event{Kind: EventJoin, Member: m})
	case old.Addr != m.Addr || old.CyclesPerSec != m.CyclesPerSec:
		f.opts.Logf("registry: %s re-registered with new identity (addr %s -> %s)", m.Name, old.Addr, m.Addr)
		f.publishLocked(Event{Kind: EventLeave, Member: old.Member})
		f.publishLocked(Event{Kind: EventJoin, Member: m})
	default:
		// Same placement identity: silent lease + inventory refresh.
	}
	return nil
}

// Heartbeat renews a member's lease and records its reported load and
// drain intent; the false→true drain transition publishes an
// EventDrain so frontends migrate the member's sessions off. It
// reports false when the member is unknown (lease already expired),
// which tells the worker to re-register.
func (f *Fleet) Heartbeat(name string, sessions uint32, load float64, draining bool) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	fm, ok := f.members[name]
	if !ok {
		return false
	}
	fm.expires = time.Now().Add(f.opts.Lease)
	fm.Sessions = sessions
	fm.LoadCyclesPerSec = load
	if draining && !fm.Draining {
		fm.Draining = true
		f.opts.Logf("registry: %s draining for maintenance", name)
		f.publishLocked(Event{Kind: EventDrain, Member: fm.Member})
	}
	return true
}

// Deregister removes a member immediately and publishes its Leave.
// Unknown names are a no-op (drain can race lease expiry).
func (f *Fleet) Deregister(name, reason string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fm, ok := f.members[name]
	if !ok {
		return
	}
	delete(f.members, name)
	f.opts.Logf("registry: %s left (%s)", name, reason)
	f.publishLocked(Event{Kind: EventLeave, Member: fm.Member})
}

// Members returns a snapshot of the current membership, sorted by
// name.
func (f *Fleet) Members() []Member {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Member, 0, len(f.members))
	for _, fm := range f.members {
		out = append(out, fm.Member)
	}
	sortMembers(out)
	return out
}

func sortMembers(ms []Member) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].Name < ms[j-1].Name; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

// Subscribe returns a channel of membership events, starting with a
// Join per current member, and a cancel function. Events are queued
// per subscriber without bounds, so a slow consumer delays only
// itself; cancel (or Fleet.Close) closes the channel.
func (f *Fleet) Subscribe() (<-chan Event, func()) {
	s := newSubscription()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		s.close()
		return s.ch, func() {}
	}
	snapshot := make([]Member, 0, len(f.members))
	for _, fm := range f.members {
		snapshot = append(snapshot, fm.Member)
	}
	sortMembers(snapshot)
	for _, m := range snapshot {
		s.push(Event{Kind: EventJoin, Member: m})
	}
	f.subs[s] = struct{}{}
	f.mu.Unlock()
	cancel := func() {
		f.mu.Lock()
		_, live := f.subs[s]
		delete(f.subs, s)
		f.mu.Unlock()
		if live {
			s.close()
		}
	}
	return s.ch, cancel
}

func (f *Fleet) publishLocked(ev Event) {
	for s := range f.subs {
		s.push(ev)
	}
}

// sweep evicts members whose lease expired without a heartbeat.
func (f *Fleet) sweep() {
	defer f.wg.Done()
	period := f.opts.Lease / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case now := <-tick.C:
			f.mu.Lock()
			for name, fm := range f.members {
				if now.After(fm.expires) {
					delete(f.members, name)
					f.opts.Logf("registry: %s lease expired, evicting", name)
					f.publishLocked(Event{Kind: EventLeave, Member: fm.Member})
				}
			}
			f.mu.Unlock()
		}
	}
}

// Serve accepts registration connections on ln until the fleet closes.
// Each worker runs the wire handshake, registers, then heartbeats; the
// connection dying leaves the member in place until its lease expires,
// so a network blip doesn't churn the ring.
func (f *Fleet) Serve(ln net.Listener) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		go func() {
			<-f.stop
			ln.Close()
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				f.handleConn(wire.NewConn(c))
			}()
		}
	}()
}

// handshakeTimeout bounds how long an accepted registration connection
// may sit silent before Hello/Register arrive.
const handshakeTimeout = 10 * time.Second

func (f *Fleet) handleConn(conn *wire.Conn) {
	defer conn.Close()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.conns[conn] = struct{}{}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.conns, conn)
		f.mu.Unlock()
	}()

	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	if err := conn.AcceptHandshake(f.opts.Frontend, nil); err != nil {
		f.opts.Logf("registry: handshake from %s failed: %v", conn.RemoteAddr(), err)
		return
	}

	// The worker speaks first with Register; everything after renews or
	// ends that registration. One connection registers one member.
	var name string
	for {
		if name == "" {
			conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
		} else {
			// Two missed heartbeats past the lease means the peer is
			// gone; let the read fail rather than block forever.
			conn.SetReadDeadline(time.Now().Add(3 * f.opts.Lease))
		}
		m, err := conn.Read()
		if err != nil {
			return
		}
		switch msg := m.(type) {
		case *wire.Register:
			mem := Member{
				Name:         msg.Name,
				Addr:         msg.Addr,
				CyclesPerSec: msg.CyclesPerSec,
				Pipelines:    msg.Pipelines,
			}
			if err := f.Register(mem); err != nil {
				conn.Write(&wire.RegisterAck{Err: err.Error()})
				return
			}
			name = msg.Name
			if err := conn.Write(&wire.RegisterAck{LeaseMs: uint32(f.opts.Lease / time.Millisecond)}); err != nil {
				return
			}
		case *wire.Heartbeat:
			if name == "" {
				conn.Write(&wire.Error{Msg: "heartbeat before register"})
				return
			}
			if !f.Heartbeat(name, msg.Sessions, msg.CyclesPerSec, msg.Draining) {
				// Lease expired while the connection stayed up (e.g. a
				// long stall): make the worker re-register.
				conn.Write(&wire.Error{Msg: "membership lease expired, re-register"})
				return
			}
		case *wire.Deregister:
			if name != "" {
				f.Deregister(name, msg.Reason)
			}
			return
		default:
			f.opts.Logf("registry: unexpected %s on registration conn from %s", m.Type(), conn.RemoteAddr())
			return
		}
	}
}

// subscription is an unbounded event queue pumped into a channel, so
// fleet mutations never block on a slow subscriber.
type subscription struct {
	ch   chan Event
	quit chan struct{}
	mu   sync.Mutex
	cond *sync.Cond
	q    []Event
	done bool
}

func newSubscription() *subscription {
	s := &subscription{ch: make(chan Event), quit: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.pump()
	return s
}

func (s *subscription) push(ev Event) {
	s.mu.Lock()
	if !s.done {
		s.q = append(s.q, ev)
		s.cond.Signal()
	}
	s.mu.Unlock()
}

func (s *subscription) close() {
	s.mu.Lock()
	if !s.done {
		s.done = true
		close(s.quit)
		s.cond.Signal()
	}
	s.mu.Unlock()
}

func (s *subscription) pump() {
	for {
		s.mu.Lock()
		for len(s.q) == 0 && !s.done {
			s.cond.Wait()
		}
		if s.done {
			// Cancellation drops queued events: the consumer has
			// already stopped listening.
			s.mu.Unlock()
			close(s.ch)
			return
		}
		ev := s.q[0]
		s.q = s.q[1:]
		s.mu.Unlock()
		select {
		case s.ch <- ev:
		case <-s.quit:
			close(s.ch)
			return
		}
	}
}
