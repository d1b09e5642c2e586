package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blockpar/internal/desc"
	"blockpar/internal/frame"
	"blockpar/internal/runtime"
)

// Options tunes the server's limits.
type Options struct {
	// MaxInFlight is the default per-session bounded frame queue;
	// feeding past it yields HTTP 429 (default 8).
	MaxInFlight int
	// CollectTimeout is the default and maximum per-request deadline
	// for collecting a frame (default 30s).
	CollectTimeout time.Duration
	// MaxSessions caps concurrent sessions; opening more yields HTTP
	// 429 (default 64).
	MaxSessions int
	// Backend decides where sessions execute: nil runs them in-process;
	// a cluster dispatcher places them on remote bpworker processes.
	Backend Backend
	// SessionDeadline, when positive, bounds every session's total
	// wall-clock lifetime. It propagates through the backend (the
	// cluster dispatcher bounds failover with it and ships it to the
	// worker) so stuck sessions cancel cleanly. Zero means unbounded.
	SessionDeadline time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 8
	}
	if o.CollectTimeout <= 0 {
		o.CollectTimeout = 30 * time.Second
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 64
	}
	return o
}

// Server hosts the registry's compiled pipelines over HTTP. All state
// is in-process; Handler is safe for concurrent use and Shutdown
// drains every session's in-flight frames before returning.
type Server struct {
	reg     *Registry
	opts    Options
	backend Backend
	metrics *metrics
	mux     *http.ServeMux
	started time.Time

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int64
	closed   bool
}

// NewServer builds a server over an already-populated registry.
func NewServer(reg *Registry, opts Options) *Server {
	s := &Server{
		reg:      reg,
		opts:     opts.withDefaults(),
		metrics:  newMetrics(),
		mux:      http.NewServeMux(),
		started:  time.Now(),
		sessions: make(map[string]*session),
	}
	s.backend = s.opts.Backend
	if s.backend == nil {
		s.backend = localBackend{}
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /healthz/live", s.handleLiveness)
	s.mux.HandleFunc("GET /healthz/ready", s.handleReadiness)
	s.mux.HandleFunc("GET /pipelines", s.handlePipelines)
	s.mux.HandleFunc("POST /pipelines", s.handleAddPipeline)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /sessions", s.handleOpenSession)
	s.mux.HandleFunc("GET /sessions", s.handleListSessions)
	s.mux.HandleFunc("DELETE /sessions/{id}", s.handleCloseSession)
	s.mux.HandleFunc("POST /sessions/{id}/frames", s.handleFeed)
	s.mux.HandleFunc("POST /sessions/{id}/collect", s.handleCollect)
	s.mux.HandleFunc("POST /sessions/{id}/process", s.handleProcess)
	s.mux.HandleFunc("POST /drain-worker", s.handleDrainWorker)
	return s
}

// WorkerDrainer is implemented by backends that can migrate one
// worker's sessions to survivors on demand — the cluster dispatcher.
// The /drain-worker admin endpoint routes through it.
type WorkerDrainer interface {
	DrainWorker(name string) error
}

// handleDrainWorker quiesces one cluster worker: no further placements
// land on it and its resident sessions live-migrate to survivors. The
// worker name comes from the "worker" query or form parameter (the
// worker's address on a fixed list).
func (s *Server) handleDrainWorker(w http.ResponseWriter, r *http.Request) {
	d, ok := s.backend.(WorkerDrainer)
	if !ok {
		writeErr(w, http.StatusNotImplemented, "backend cannot drain workers")
		return
	}
	name := r.FormValue("worker")
	if name == "" {
		writeErr(w, http.StatusBadRequest, "missing worker parameter")
		return
	}
	if err := d.DrainWorker(name); err != nil {
		writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"draining": name})
}

// Handler returns the server's HTTP handler with panic recovery: a
// panicking handler answers 500 and the process keeps serving.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.panics.Add(1)
				writeErr(w, http.StatusInternalServerError,
					fmt.Sprintf("internal error: %v", rec))
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// Shutdown stops accepting new work and gracefully drains: every
// session's in-flight frames are processed to completion before its
// kernel goroutines exit. The context bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		if sess != nil {
			sessions = append(sessions, sess)
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	var drained atomic.Int64
	go func() {
		defer close(done)
		for _, sess := range sessions {
			s.removeSession(sess)
			drained.Add(1)
		}
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Count what the interrupted drain leaves behind so operators
		// (and the -drain-timeout exit code) can tell a clean timeout
		// from abandoned work. The count walks the captured slice, not
		// the table: removeSession drops a session from the table before
		// its (possibly stuck) close finishes.
		var abandoned, open int64
		for _, sess := range sessions[drained.Load():] {
			open++
			abandoned += sess.rt.InFlight()
		}
		return fmt.Errorf("serve: shutdown drain interrupted: %w (%d sessions with %d in-flight frames abandoned)",
			ctx.Err(), open, abandoned)
	}
}

// removeSession closes a session's runtime (draining fed frames) and
// drops it from the table. Safe to call twice.
func (s *Server) removeSession(sess *session) {
	s.mu.Lock()
	_, present := s.sessions[sess.id]
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	sess.rt.Close()
	if present {
		s.metrics.sessionsClosed.Add(1)
	}
}

func (s *Server) session(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	// A nil entry is a slot reserved by a still-opening session.
	return sess, ok && sess != nil
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	open := len(s.sessions)
	s.mu.Unlock()
	status, code := "ok", http.StatusOK
	if closed {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":    status,
		"uptime_s":  time.Since(s.started).Seconds(),
		"pipelines": len(s.reg.List()),
		"sessions":  open,
	})
}

// handleLiveness answers 200 whenever the process is serving requests,
// draining included — a draining server is alive, just not accepting
// work. Restart-on-liveness probes must point here, not at readiness.
func (s *Server) handleLiveness(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.started).Seconds(),
	})
}

// handleReadiness reports whether the server should receive new
// sessions: "ok", "degraded" (capacity reduced — some cluster workers
// down or draining — but placement still possible, answered 200 so
// load balancers keep routing), or 503 for draining/unavailable.
func (s *Server) handleReadiness(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	open := len(s.sessions)
	s.mu.Unlock()
	rd := Readiness{Status: "ok"}
	if rr, ok := s.backend.(ReadinessReporter); ok {
		rd = rr.Readiness()
	}
	if closed {
		rd = Readiness{Status: "draining", Detail: "server is draining"}
	}
	code := http.StatusOK
	if rd.Status != "ok" && rd.Status != "degraded" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":   rd.Status,
		"detail":   rd.Detail,
		"sessions": open,
	})
}

// pipelineInfo is the /pipelines JSON shape: the compiled inventory
// with its analysis-derived load summary.
type pipelineInfo struct {
	ID           string   `json:"id"`
	Name         string   `json:"name"`
	Source       string   `json:"source"`
	Nodes        int      `json:"nodes"`
	CyclesPerSec float64  `json:"cycles_per_sec"`
	MemoryWords  int64    `json:"memory_words"`
	CompileMs    float64  `json:"compile_ms"`
	Inputs       []ioInfo `json:"inputs"`
	Outputs      []string `json:"outputs"`
}

type ioInfo struct {
	Name  string `json:"name"`
	Frame [2]int `json:"frame"`
	Rate  string `json:"rate"`
}

func (s *Server) handlePipelines(w http.ResponseWriter, r *http.Request) {
	var out []pipelineInfo
	for _, p := range s.reg.List() {
		info := pipelineInfo{
			ID:           p.ID,
			Name:         p.Name,
			Source:       p.Source,
			Nodes:        p.Nodes,
			CyclesPerSec: p.CyclesPerSec,
			MemoryWords:  p.MemoryWords,
			CompileMs:    float64(p.CompileTime) / float64(time.Millisecond),
		}
		for _, n := range p.graph.Inputs() {
			info.Inputs = append(info.Inputs, ioInfo{
				Name:  n.Name(),
				Frame: [2]int{n.FrameSize.W, n.FrameSize.H},
				Rate:  desc.FormatRate(n.Rate),
			})
		}
		for _, n := range p.graph.Outputs() {
			info.Outputs = append(info.Outputs, n.Name())
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleAddPipeline(w http.ResponseWriter, r *http.Request) {
	if s.isClosed() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	p, err := s.reg.AddJSON(data)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"pipeline":   p.ID,
		"nodes":      p.Nodes,
		"compile_ms": float64(p.CompileTime) / float64(time.Millisecond),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	open := len(s.sessions)
	var queueDepth int64
	for _, sess := range s.sessions {
		if sess != nil {
			queueDepth += sess.rt.InFlight()
		}
	}
	s.mu.Unlock()
	pool := frame.Stats()
	payload := map[string]any{
		"uptime_s":        time.Since(s.started).Seconds(),
		"frames_in":       s.metrics.framesIn.Load(),
		"frames_out":      s.metrics.framesOut.Load(),
		"rejected_429":    s.metrics.rejected.Load(),
		"shed_503":        s.metrics.shed.Load(),
		"sessions_open":   open,
		"sessions_opened": s.metrics.sessionsOpened.Load(),
		"sessions_closed": s.metrics.sessionsClosed.Load(),
		"queue_depth":     queueDepth,
		"handler_panics":  s.metrics.panics.Load(),
		"session_errors":  s.metrics.sessionErrors.Load(),
		"pipelines":       s.metrics.latencySnapshot(),
		"pool": map[string]any{
			"gets":         pool.Gets,
			"hits":         pool.Hits,
			"puts":         pool.Puts,
			"hit_rate":     pool.HitRate(),
			"buffers_live": pool.Live,
			"pooled_bytes": pool.PooledBytes,
		},
	}
	if sr, ok := s.backend.(StatsReporter); ok {
		payload["cluster"] = sr.BackendStats()
	}
	writeJSON(w, http.StatusOK, payload)
}

func (s *Server) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Pipeline    string `json:"pipeline"`
		MaxInFlight int    `json:"maxInFlight"`
		// Key pins ring placement on registered-fleet backends, so any
		// frontend routes the same key to the same worker.
		Key string `json:"key"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	p, ok := s.reg.Get(req.Pipeline)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown pipeline %q", req.Pipeline))
		return
	}
	maxInFlight := req.MaxInFlight
	if maxInFlight <= 0 || maxInFlight > 1024 {
		maxInFlight = s.opts.MaxInFlight
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if len(s.sessions) >= s.opts.MaxSessions {
		s.mu.Unlock()
		s.metrics.rejected.Add(1)
		w.Header()["Retry-After"] = retryAfter
		writeErr(w, http.StatusTooManyRequests,
			fmt.Sprintf("session limit %d reached", s.opts.MaxSessions))
		return
	}
	s.nextID++
	id := fmt.Sprintf("s%d", s.nextID)
	// Reserve the slot before the (cheap but not free) graph clone.
	s.sessions[id] = nil
	s.mu.Unlock()

	rt, err := s.backend.Open(p, OpenOptions{
		MaxInFlight: maxInFlight,
		Deadline:    s.opts.SessionDeadline,
		Key:         req.Key,
	})
	if err != nil {
		s.mu.Lock()
		delete(s.sessions, id)
		s.mu.Unlock()
		if errors.Is(err, ErrOverloaded) {
			// Admission control: the fleet is healthy but its projected
			// cycles/sec is spoken for — same retry contract as a full
			// frame queue.
			s.metrics.rejected.Add(1)
			w.Header()["Retry-After"] = retryAfter
			writeErr(w, http.StatusTooManyRequests, err.Error())
			return
		}
		if errors.Is(err, ErrUnavailable) || errors.Is(err, ErrSessionLost) {
			s.metrics.shed.Add(1)
			w.Header()["Retry-After"] = retryAfter
			writeErr(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	sess := &session{
		id:          id,
		pipeline:    p,
		rt:          rt,
		maxInFlight: maxInFlight,
		created:     time.Now(),
		feedTimes:   make([]feedStamp, maxInFlight),
	}
	s.mu.Lock()
	s.sessions[id] = sess
	closed := s.closed
	s.mu.Unlock()
	if closed {
		// Shutdown raced with us; take the session back down.
		s.removeSession(sess)
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.metrics.sessionsOpened.Add(1)
	writeJSON(w, http.StatusCreated, map[string]any{
		"session":     id,
		"pipeline":    p.ID,
		"maxInFlight": maxInFlight,
	})
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]map[string]any, 0, len(s.sessions))
	for _, sess := range s.sessions {
		if sess == nil {
			continue
		}
		out = append(out, map[string]any{
			"session":   sess.id,
			"pipeline":  sess.pipeline.ID,
			"fed":       sess.rt.Fed(),
			"completed": sess.rt.Completed(),
			"inFlight":  sess.rt.InFlight(),
			"created":   sess.created.UTC().Format(time.RFC3339),
		})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	s.removeSession(sess)
	writeJSON(w, http.StatusOK, map[string]any{
		"session":   sess.id,
		"completed": sess.rt.Completed(),
	})
}

func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	if s.isClosed() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if sess.full() {
		s.feedError(w, runtime.ErrQueueFull)
		return
	}
	inputs, code, err := readFrameBody(w, r)
	if err != nil {
		writeErr(w, code, err.Error())
		return
	}
	idx, err := sess.feed(inputs)
	if err != nil {
		s.feedError(w, err)
		return
	}
	s.metrics.framesIn.Add(1)
	buf := getBuf()
	b := appendFeedAck(*buf, idx, sess.rt.InFlight())
	writeBody(w, http.StatusAccepted, b)
	putBuf(buf, b)
}

func (s *Server) handleCollect(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	s.collectAndReply(w, r, sess)
}

func (s *Server) handleProcess(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	if s.isClosed() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// Serialize feed+collect pairs so each caller gets the frame it fed.
	// The lock comes before the fullness check: another /process call in
	// progress is a reason to wait, not to refuse.
	sess.procMu.Lock()
	defer sess.procMu.Unlock()
	if sess.full() {
		s.feedError(w, runtime.ErrQueueFull)
		return
	}
	inputs, code, err := readFrameBody(w, r)
	if err != nil {
		writeErr(w, code, err.Error())
		return
	}
	if _, err := sess.feed(inputs); err != nil {
		s.feedError(w, err)
		return
	}
	s.metrics.framesIn.Add(1)
	s.collectAndReply(w, r, sess)
}

func (s *Server) collectAndReply(w http.ResponseWriter, r *http.Request, sess *session) {
	timeout := s.opts.CollectTimeout
	if q := r.URL.Query().Get("timeout"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad timeout %q", q))
			return
		}
		if d < timeout {
			timeout = d
		}
	}
	res, lat, err := sess.collect(timeout)
	if err != nil {
		switch {
		case errors.Is(err, ErrSessionLost), errors.Is(err, ErrUnavailable):
			s.metrics.shed.Add(1)
			w.Header()["Retry-After"] = retryAfter
			writeErr(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, runtime.ErrSessionClosed):
			writeErr(w, http.StatusConflict, err.Error())
		case errors.Is(err, runtime.ErrCollectTimeout):
			writeErr(w, http.StatusGatewayTimeout, err.Error())
		default:
			s.metrics.sessionErrors.Add(1)
			writeErr(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	s.metrics.framesOut.Add(1)
	if lat > 0 {
		s.metrics.latencyFor(sess.pipeline.ID).add(lat)
	}
	buf := getBuf()
	b, err := appendReply(*buf, res.Seq, float64(lat)/float64(time.Millisecond), res.Outputs)
	releaseOutputs(res.Outputs)
	if err != nil {
		// The frame is consumed either way; nothing of the partial
		// encoding has reached the client.
		s.metrics.sessionErrors.Add(1)
		writeErr(w, http.StatusInternalServerError, fmt.Sprintf("frame %d: %v", res.Seq, err))
	} else {
		writeBody(w, http.StatusOK, b)
	}
	putBuf(buf, b)
}

// feedError maps a runtime feed failure onto an HTTP status: queue
// saturation is backpressure (429 + Retry-After), a lost or shed
// session is transient capacity loss (503 + Retry-After), everything
// else a caller mistake or server error.
func (s *Server) feedError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, runtime.ErrQueueFull):
		s.metrics.rejected.Add(1)
		w.Header()["Retry-After"] = retryAfter
		writeErr(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrSessionLost), errors.Is(err, ErrUnavailable):
		s.metrics.shed.Add(1)
		w.Header()["Retry-After"] = retryAfter
		writeErr(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, runtime.ErrBadFrame):
		writeErr(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, runtime.ErrSessionClosed):
		writeErr(w, http.StatusConflict, err.Error())
	default:
		s.metrics.sessionErrors.Add(1)
		writeErr(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// ---- plumbing ----

// maxBodyBytes caps a request body; a longer one is refused with 413.
const maxBodyBytes = 64 << 20

var errBodyTooLarge = fmt.Errorf("request body exceeds %d bytes", maxBodyBytes)

// readFrameBody decodes an optional {"inputs": {...}} request body: an
// empty body means "generate every input from the pipeline's sources".
// The body is read into a pooled buffer sized from Content-Length and
// parsed in place; the windows returned do not alias it.
func readFrameBody(w http.ResponseWriter, r *http.Request) (map[string]frame.Window, int, error) {
	if r.ContentLength == 0 {
		return nil, 0, nil
	}
	if r.ContentLength > maxBodyBytes {
		return nil, http.StatusRequestEntityTooLarge, errBodyTooLarge
	}
	buf := getBuf()
	body := bytes.NewBuffer(*buf)
	if r.ContentLength > 0 {
		// Room for the announced length plus the read that returns EOF.
		body.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	data := body.Bytes()
	var inputs map[string]frame.Window
	if err == nil && len(data) > 0 {
		inputs, err = parseFrameBody(data)
	}
	putBuf(buf, data)
	if err != nil {
		var limit *http.MaxBytesError
		if errors.As(err, &limit) {
			return nil, http.StatusRequestEntityTooLarge, errBodyTooLarge
		}
		return nil, http.StatusBadRequest, err
	}
	return inputs, 0, nil
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return fmt.Errorf("empty request body")
		}
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// Header values shared by every reply that carries them. They are
// assigned whole (under their canonical keys) rather than through
// Header().Set, which allocates a one-element slice per call; net/http
// only reads a handler's header values, so one slice serves every reply.
var (
	jsonContentType = []string{"application/json"}
	retryAfter      = []string{"1"}
)

// writeBody sends a complete, already encoded JSON body.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

// writeJSON replies with v for the control-plane endpoints, none of
// which carries samples. The value is encoded before the status is
// committed, so an unencodable one becomes a 500, not an empty 200.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, code, buf.Bytes())
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	buf := getBuf()
	b := appendError(*buf, msg)
	writeBody(w, code, b)
	putBuf(buf, b)
}
