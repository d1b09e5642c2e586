package registry

import (
	"fmt"
	"net"
	"testing"
	"time"
)

func TestRingDeterministicAcrossJoinOrder(t *testing.T) {
	a := NewRing(64)
	b := NewRing(64)
	members := []string{"w0", "w1", "w2", "w3", "w4"}
	for _, m := range members {
		a.Add(m)
	}
	for i := len(members) - 1; i >= 0; i-- {
		b.Add(members[i])
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("session-%d", i)
		if a.Lookup(key) != b.Lookup(key) {
			t.Fatalf("key %q: ring A says %s, ring B says %s — placement depends on join order",
				key, a.Lookup(key), b.Lookup(key))
		}
	}
}

func TestRingLookupN(t *testing.T) {
	r := NewRing(64)
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("w%d", i))
	}
	got := r.LookupN("some-session", 3)
	if len(got) != 3 {
		t.Fatalf("LookupN(3) returned %d members: %v", len(got), got)
	}
	if got[0] != r.Lookup("some-session") {
		t.Fatalf("LookupN[0]=%s != Lookup=%s", got[0], r.Lookup("some-session"))
	}
	seen := map[string]bool{}
	for _, m := range got {
		if seen[m] {
			t.Fatalf("LookupN returned duplicate member %s: %v", m, got)
		}
		seen[m] = true
	}
	if n := len(r.LookupN("k", 10)); n != 4 {
		t.Fatalf("LookupN(10) on 4-member ring returned %d", n)
	}
	if NewRing(8).Lookup("k") != "" || NewRing(8).LookupN("k", 2) != nil {
		t.Fatal("empty ring should return no members")
	}
}

// TestRingRebalanceBound is the ISSUE's property test: on a single
// leave, the only keys that move are those the departed member owned —
// exactly K/n in expectation, and never a key between two survivors.
// On a single join, the new member takes ~K/(n+1) keys and no key
// moves between two old members.
func TestRingRebalanceBound(t *testing.T) {
	const K = 2000
	keys := make([]string, K)
	for i := range keys {
		keys[i] = fmt.Sprintf("sess-%d", i)
	}
	owner := func(r *Ring) map[string]string {
		m := make(map[string]string, K)
		for _, k := range keys {
			m[k] = r.Lookup(k)
		}
		return m
	}

	r := NewRing(0)
	n := 6
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("w%d", i))
	}
	before := owner(r)

	// Leave: every moved key must have belonged to the removed member.
	r.Remove("w3")
	after := owner(r)
	moved := 0
	for _, k := range keys {
		if before[k] != after[k] {
			moved++
			if before[k] != "w3" {
				t.Fatalf("key %s moved %s -> %s on w3's departure: survivors must keep their keys",
					k, before[k], after[k])
			}
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved when a member left")
	}
	// With vnodes the per-member share concentrates near K/n; allow 2x.
	if max := 2 * K / n; moved > max {
		t.Fatalf("leave moved %d keys, want ≤ %d (2·K/n)", moved, max)
	}

	// Join: every moved key must now belong to the joiner.
	before = owner(r) // 5 members
	r.Add("w9")
	after = owner(r)
	moved = 0
	for _, k := range keys {
		if before[k] != after[k] {
			moved++
			if after[k] != "w9" {
				t.Fatalf("key %s moved %s -> %s on w9's arrival: only the joiner may gain keys",
					k, before[k], after[k])
			}
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved when a member joined")
	}
	if max := 2 * K / 6; moved > max {
		t.Fatalf("join moved %d keys, want ≤ %d (2·K/(n+1))", moved, max)
	}
}

func member(name string) Member {
	return Member{Name: name, Addr: name + ".example:9000", CyclesPerSec: 1e8}
}

// subscribe buffers f's events on a channel for the test to wait on.
// The callback runs under the fleet's lock and must not block, so the
// buffer holds more events than any test here produces.
func subscribe(f *Fleet) (<-chan Event, func()) {
	ch := make(chan Event, 64)
	return ch, f.Subscribe(func(ev Event) { ch <- ev })
}

func waitEvent(t *testing.T, ch <-chan Event) Event {
	t.Helper()
	select {
	case ev := <-ch:
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for membership event")
	}
	panic("unreachable")
}

func TestFleetSubscribeSnapshotAndLiveEvents(t *testing.T) {
	f := NewFleet(FleetOptions{Frontend: "fe0", Logf: t.Logf})
	defer f.Close()
	if err := f.Register(member("w0")); err != nil {
		t.Fatal(err)
	}

	ch, cancel := subscribe(f)
	defer cancel()
	// The snapshot is delivered before Subscribe returns.
	select {
	case ev := <-ch:
		if ev.Kind != EventJoin || ev.Member.Name != "w0" {
			t.Fatalf("want snapshot join for w0, got %v %s", ev.Kind, ev.Member.Name)
		}
	default:
		t.Fatal("Subscribe returned before delivering the snapshot join")
	}

	if err := f.Register(member("w1")); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, ch); ev.Kind != EventJoin || ev.Member.Name != "w1" {
		t.Fatalf("want live join for w1, got %v %s", ev.Kind, ev.Member.Name)
	}

	// Same identity re-registration is a silent lease refresh.
	if err := f.Register(member("w1")); err != nil {
		t.Fatal(err)
	}
	// Changed data-plane address must re-announce.
	m := member("w1")
	m.Addr = "elsewhere:9000"
	if err := f.Register(m); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, ch); ev.Kind != EventLeave || ev.Member.Name != "w1" {
		t.Fatalf("want leave for re-identified w1, got %v %s", ev.Kind, ev.Member.Name)
	}
	if ev := waitEvent(t, ch); ev.Kind != EventJoin || ev.Member.Addr != "elsewhere:9000" {
		t.Fatalf("want re-join with new addr, got %v %s", ev.Kind, ev.Member.Addr)
	}

	f.Deregister("w0", "drain")
	if ev := waitEvent(t, ch); ev.Kind != EventLeave || ev.Member.Name != "w0" {
		t.Fatalf("want leave for w0, got %v %s", ev.Kind, ev.Member.Name)
	}
	if got := len(f.Members()); got != 1 {
		t.Fatalf("want 1 member after deregister, got %d", got)
	}
}

func TestFleetLeaseExpiry(t *testing.T) {
	f := NewFleet(FleetOptions{Frontend: "fe0", Lease: 50 * time.Millisecond, Logf: t.Logf})
	defer f.Close()
	ch, cancel := subscribe(f)
	defer cancel()

	if err := f.Register(member("w0")); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, ch) // join

	// Heartbeats keep it alive well past the lease...
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		if !f.Heartbeat("w0") {
			t.Fatal("heartbeat rejected while member should be alive")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// ...then silence evicts it.
	if ev := waitEvent(t, ch); ev.Kind != EventLeave || ev.Member.Name != "w0" {
		t.Fatalf("want lease-expiry leave, got %v %s", ev.Kind, ev.Member.Name)
	}
	if f.Heartbeat("w0") {
		t.Fatal("heartbeat after eviction must report unknown member")
	}
}

// TestJoinerEndToEnd drives the full wire path: a worker joins two
// frontends over TCP, both see it with the advertised capacity,
// heartbeats outlive the lease, and a graceful Leave removes it from
// both immediately.
func TestJoinerEndToEnd(t *testing.T) {
	const lease = 100 * time.Millisecond
	var fleets []*Fleet
	var addrs []string
	for i := 0; i < 2; i++ {
		f := NewFleet(FleetOptions{Frontend: fmt.Sprintf("fe%d", i), Lease: lease, Logf: t.Logf})
		defer f.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		f.Serve(ln)
		fleets = append(fleets, f)
		addrs = append(addrs, ln.Addr().String())
	}

	chans := make([]<-chan Event, 2)
	for i, f := range fleets {
		ch, cancel := subscribe(f)
		defer cancel()
		chans[i] = ch
	}

	j, err := Join(JoinConfig{
		Frontends: addrs,
		Self:      Member{Name: "w0", Addr: "127.0.0.1:7777", CyclesPerSec: 1.6e8},
		RetryMin:  10 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := range fleets {
		ev := waitEvent(t, chans[i])
		if ev.Kind != EventJoin || ev.Member.Name != "w0" {
			t.Fatalf("frontend %d: want join for w0, got %v %s", i, ev.Kind, ev.Member.Name)
		}
		if ev.Member.CyclesPerSec != 1.6e8 || ev.Member.Addr != "127.0.0.1:7777" {
			t.Fatalf("frontend %d: registration lost address or capacity: %+v", i, ev.Member)
		}
	}

	// Stay registered across several lease periods: heartbeats work.
	time.Sleep(4 * lease)
	for i, f := range fleets {
		if ms := f.Members(); len(ms) != 1 {
			t.Fatalf("frontend %d: member evicted despite heartbeats", i)
		}
	}

	j.Leave("drain")
	for i := range fleets {
		ev := waitEvent(t, chans[i])
		if ev.Kind != EventLeave || ev.Member.Name != "w0" {
			t.Fatalf("frontend %d: want leave on drain, got %v %s", i, ev.Kind, ev.Member.Name)
		}
		if n := len(fleets[i].Members()); n != 0 {
			t.Fatalf("frontend %d: %d members left after graceful leave", i, n)
		}
	}
}

// TestJoinerRedialsAfterConnLoss kills the registration listener's
// accepted conn indirectly by closing the whole fleet, restarts a new
// fleet on the same address, and requires the joiner to re-register on
// its own.
func TestJoinerRedialsAfterConnLoss(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	f1 := NewFleet(FleetOptions{Frontend: "fe0", Lease: 100 * time.Millisecond, Logf: t.Logf})
	f1.Serve(ln)

	j, err := Join(JoinConfig{
		Frontends: []string{addr},
		Self:      member("w0"),
		RetryMin:  10 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	ch1, cancel1 := subscribe(f1)
	if ev := waitEvent(t, ch1); ev.Kind != EventJoin {
		t.Fatalf("want join, got %v", ev.Kind)
	}
	cancel1()
	f1.Close() // hangs up the registration conn

	// New frontend process on the same address: the joiner must find it.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	f2 := NewFleet(FleetOptions{Frontend: "fe0b", Lease: 100 * time.Millisecond, Logf: t.Logf})
	defer f2.Close()
	ch2, cancel2 := subscribe(f2)
	defer cancel2()
	f2.Serve(ln2)
	if ev := waitEvent(t, ch2); ev.Kind != EventJoin || ev.Member.Name != "w0" {
		t.Fatalf("want re-registration join on new fleet, got %v %s", ev.Kind, ev.Member.Name)
	}
}

// TestJitterBackoff pins the decorrelated-jitter contract: every draw
// lands in [min, max], growth from a small prev can reach 3×prev, and
// degenerate inputs (prev below min, max below min) stay sane.
func TestJitterBackoff(t *testing.T) {
	const min, max = 10 * time.Millisecond, 300 * time.Millisecond
	prev := min
	for i := 0; i < 1000; i++ {
		next := JitterBackoff(prev, min, max)
		if next < min || next > max {
			t.Fatalf("draw %d: %v outside [%v, %v] (prev %v)", i, next, min, max, prev)
		}
		if next >= 3*prev && next != max {
			t.Fatalf("draw %d: %v >= 3x prev %v without hitting the cap", i, next, prev)
		}
		prev = next
	}
	if got := JitterBackoff(0, min, max); got < min || got > max {
		t.Fatalf("prev below min: got %v", got)
	}
	if got := JitterBackoff(time.Second, min, 5*time.Millisecond); got != min {
		t.Fatalf("max below min must clamp to min: got %v", got)
	}
}
