package registry

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"blockpar/internal/wire"
)

// Member is one registered worker as the fleet sees it: exactly the
// fields of wire.Register, which converts to and from it.
type Member struct {
	Name         string
	Addr         string  // data-plane address frontends dial for sessions
	CyclesPerSec float64 // capacity in machine-model cycles/sec (PEs × PE clock)
}

// EventKind tags a membership event.
type EventKind uint8

const (
	// EventJoin announces a new or replaced member.
	EventJoin EventKind = iota + 1
	// EventLeave announces a deregistered, evicted, or replaced member.
	EventLeave
)

func (k EventKind) String() string {
	switch k {
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
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
// over the wire (Serve) or directly (Register); membership changes are
// handed to subscribers, which is how the dispatcher learns about
// join/leave churn.
type Fleet struct {
	opts FleetOptions

	mu      sync.Mutex
	members map[string]*fleetMember
	subs    map[uint64]func(Event)
	nextSub uint64
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
		subs:    make(map[uint64]func(Event)),
		conns:   make(map[*wire.Conn]struct{}),
		stop:    make(chan struct{}),
	}
	f.wg.Add(1)
	go f.sweep()
	return f
}

// Close stops the sweeper, hangs up registration connections, and
// drops every subscriber.
func (f *Fleet) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.mu.Lock()
	f.closed = true
	for c := range f.conns {
		c.Close()
	}
	f.conns = map[*wire.Conn]struct{}{}
	f.subs = map[uint64]func(Event){}
	f.mu.Unlock()
	f.wg.Wait()
}

// Register adds or replaces a member and starts its lease. A
// re-registration with unchanged identity (addr, capacity) just
// refreshes the lease; a changed identity is announced as Leave then
// Join so consumers re-dial.
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
		f.opts.Logf("registry: %s joined (addr=%s capacity=%.3g cyc/s)", m.Name, m.Addr, m.CyclesPerSec)
		f.publishLocked(Event{Kind: EventJoin, Member: m})
	case old.Member != m:
		f.opts.Logf("registry: %s re-registered with new identity (addr %s -> %s)", m.Name, old.Addr, m.Addr)
		f.publishLocked(Event{Kind: EventLeave, Member: old.Member})
		f.publishLocked(Event{Kind: EventJoin, Member: m})
	default:
		// Same identity: silent lease refresh.
	}
	return nil
}

// Heartbeat renews a member's lease. It reports false when the member
// is unknown (lease already expired), which tells the worker to
// re-register.
func (f *Fleet) Heartbeat(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	fm, ok := f.members[name]
	if ok {
		fm.expires = time.Now().Add(f.opts.Lease)
	}
	return ok
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
	return f.membersLocked()
}

func (f *Fleet) membersLocked() []Member {
	out := make([]Member, 0, len(f.members))
	for _, fm := range f.members {
		out = append(out, fm.Member)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Subscribe hands fn a Join for every current member, sorted by name,
// before it returns, then every membership change in order until
// cancel (or Close). fn runs synchronously under the fleet's lock, so
// it must not block or call back into the fleet.
func (f *Fleet) Subscribe(fn func(Event)) (cancel func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return func() {}
	}
	for _, m := range f.membersLocked() {
		fn(Event{Kind: EventJoin, Member: m})
	}
	id := f.nextSub
	f.nextSub++
	f.subs[id] = fn
	return func() {
		f.mu.Lock()
		delete(f.subs, id)
		f.mu.Unlock()
	}
}

func (f *Fleet) publishLocked(ev Event) {
	for _, fn := range f.subs {
		fn(ev)
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
			if err := f.Register(Member(*msg)); err != nil {
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
			if !f.Heartbeat(name) {
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
