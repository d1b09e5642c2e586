package registry

import (
	"fmt"
	"net"
	"sync"
	"time"

	"blockpar/internal/wire"
)

// JoinConfig configures a worker's registration with one or more
// frontends.
type JoinConfig struct {
	// Frontends are the registration addresses to dial. Each gets its
	// own independent register/heartbeat loop, so every frontend
	// sharing the fleet sees the same membership.
	Frontends []string
	// Self describes this worker. Name and Addr are required; Addr is
	// the data-plane address frontends dial back for sessions.
	Self Member
	// Dial overrides net.Dial, e.g. for fault injection. Nil uses a
	// 5-second-timeout TCP dial.
	Dial func(network, addr string) (net.Conn, error)
	// RetryMin/RetryMax bound the reconnect backoff. Zero selects
	// 100ms/2s.
	RetryMin, RetryMax time.Duration
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Joiner maintains a worker's registration with its frontends:
// dial, handshake, Register, heartbeat at a third of the granted
// lease, and redial with backoff when the connection or the lease is
// lost. Leave sends a graceful Deregister everywhere before stopping.
type Joiner struct {
	cfg JoinConfig

	mu    sync.Mutex
	conns map[string]*wire.Conn // live registration conn per frontend

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Join starts registration loops toward every frontend and returns
// immediately; registration happens (and recovers) in the background.
func Join(cfg JoinConfig) (*Joiner, error) {
	if cfg.Self.Name == "" || cfg.Self.Addr == "" {
		return nil, fmt.Errorf("registry: join needs a worker name and data-plane address")
	}
	if len(cfg.Frontends) == 0 {
		return nil, fmt.Errorf("registry: join needs at least one frontend address")
	}
	if cfg.Dial == nil {
		cfg.Dial = func(network, addr string) (net.Conn, error) {
			return net.DialTimeout(network, addr, 5*time.Second)
		}
	}
	if cfg.RetryMin <= 0 {
		cfg.RetryMin = 100 * time.Millisecond
	}
	if cfg.RetryMax < cfg.RetryMin {
		cfg.RetryMax = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	j := &Joiner{
		cfg:   cfg,
		conns: make(map[string]*wire.Conn),
		stop:  make(chan struct{}),
	}
	for _, fe := range cfg.Frontends {
		j.wg.Add(1)
		go j.loop(fe)
	}
	return j, nil
}

// Leave deregisters gracefully from every connected frontend, then
// stops all loops. Frontends drop the member immediately instead of
// waiting out the lease — and cancel any reconnect loop pointed at
// this worker's data address.
func (j *Joiner) Leave(reason string) {
	j.mu.Lock()
	for _, c := range j.conns {
		c.Write(&wire.Deregister{Reason: reason})
	}
	j.mu.Unlock()
	j.Close()
}

// Close stops all loops without deregistering; frontends see the
// conn drop and let the lease expire.
func (j *Joiner) Close() {
	j.stopOnce.Do(func() { close(j.stop) })
	j.mu.Lock()
	for _, c := range j.conns {
		c.Close()
	}
	j.mu.Unlock()
	j.wg.Wait()
}

func (j *Joiner) loop(frontend string) {
	defer j.wg.Done()
	backoff := j.cfg.RetryMin
	for {
		select {
		case <-j.stop:
			return
		default:
		}
		err := j.session(frontend)
		if err == nil {
			// Clean shutdown.
			return
		}
		select {
		case <-j.stop:
			return
		case <-time.After(backoff):
		}
		// Decorrelated jitter: a fleet of workers that lost the same
		// frontend at the same instant spreads its re-registrations
		// instead of thundering back in lockstep.
		backoff = JitterBackoff(backoff, j.cfg.RetryMin, j.cfg.RetryMax)
	}
}

// session runs one dial→register→heartbeat lifetime against a
// frontend. It returns nil only when the joiner is stopping; any error
// means "redial after backoff".
func (j *Joiner) session(frontend string) error {
	nc, err := j.cfg.Dial("tcp", frontend)
	if err != nil {
		return err
	}
	conn := wire.NewConn(nc)
	defer conn.Close()

	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	if _, err := conn.Handshake(); err != nil {
		return err
	}
	reg := wire.Register(j.cfg.Self)
	if err := conn.Write(&reg); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	m, err := conn.Read()
	if err != nil {
		return err
	}
	ack, ok := m.(*wire.RegisterAck)
	if !ok {
		return fmt.Errorf("registry: register answered with %s", m.Type())
	}
	if ack.Err != "" {
		return fmt.Errorf("registry: %s refused registration: %s", frontend, ack.Err)
	}
	lease := time.Duration(ack.LeaseMs) * time.Millisecond
	if lease <= 0 {
		lease = DefaultLease
	}
	j.cfg.Logf("registry: registered with %s (lease %v)", frontend, lease)

	j.mu.Lock()
	j.conns[frontend] = conn
	j.mu.Unlock()
	defer func() {
		j.mu.Lock()
		if j.conns[frontend] == conn {
			delete(j.conns, frontend)
		}
		j.mu.Unlock()
	}()

	// The frontend only ever speaks to report an error (e.g. lease
	// expired under a stall); a reader goroutine turns that — or the
	// conn dying — into a redial signal.
	readErr := make(chan error, 1)
	go func() {
		conn.SetReadDeadline(time.Time{})
		m, err := conn.Read()
		if err != nil {
			readErr <- err
			return
		}
		if e, ok := m.(*wire.Error); ok {
			readErr <- fmt.Errorf("registry: frontend %s: %s", frontend, e.Msg)
			return
		}
		readErr <- fmt.Errorf("registry: unexpected %s from frontend %s", m.Type(), frontend)
	}()

	beat := time.NewTicker(lease / 3)
	defer beat.Stop()
	for {
		select {
		case <-j.stop:
			return nil
		case err := <-readErr:
			j.cfg.Logf("registry: connection to %s lost: %v", frontend, err)
			return err
		case <-beat.C:
			if err := conn.Write(&wire.Heartbeat{}); err != nil {
				return err
			}
		}
	}
}
