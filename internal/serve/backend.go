package serve

import (
	"errors"
	"time"

	"blockpar/internal/frame"
	"blockpar/internal/runtime"
)

// ErrUnavailable tags backend placement failures that are capacity
// problems, not bugs — the HTTP layer maps them to 503 so clients
// retry elsewhere instead of treating them as server errors.
var ErrUnavailable = errors.New("serve: no execution capacity available")

// ErrOverloaded tags admission-control rejections: the projected
// cycles/sec demand of open sessions plus the new one exceeds the
// fleet's analysis-derived capacity. Unlike ErrUnavailable (nothing to
// place on), the fleet is healthy but full — the HTTP layer maps it to
// 429 + Retry-After, the same contract as a full frame queue.
var ErrOverloaded = errors.New("serve: fleet capacity exhausted")

// ErrSessionLost tags sessions whose execution was lost mid-stream and
// could not be recovered by failover (worker death with no surviving
// capacity, or a session past its replay budget). It is a transient
// infrastructure fault, not a caller mistake: the HTTP layer maps it
// to 503 + Retry-After so clients reopen the session.
var ErrSessionLost = errors.New("serve: session execution lost")

// SessionHandle is the server's view of one streaming execution
// instance, wherever it runs. *runtime.Session satisfies it directly
// (in-process execution); the cluster dispatcher returns handles that
// proxy the same operations to a remote worker over the wire protocol.
//
// Windows returned by Collect follow the frame ownership protocol: the
// caller owns one reference per window and must Release each (a no-op
// for unpooled storage, which is what in-process sessions return) — the
// server does it with frame.ReleaseList, which also hands the list that
// carried them back to whichever backend allocates the next one.
type SessionHandle interface {
	// TryFeed enqueues one frame without blocking; runtime.ErrQueueFull
	// signals backpressure and runtime.ErrBadFrame caller mistakes.
	TryFeed(inputs map[string]frame.Window) (int64, error)
	// Collect blocks for the next completed frame, bounded by timeout.
	Collect(timeout time.Duration) (*runtime.StreamResult, error)
	// Fed, Completed, and InFlight report the session's frame counters.
	Fed() int64
	Completed() int64
	InFlight() int64
	// Close drains in-flight frames and tears the session down.
	Close() error
}

// OpenOptions parameterize one session placement.
type OpenOptions struct {
	// MaxInFlight bounds the session's frame queue.
	MaxInFlight int
	// Deadline, when positive, is a wall-clock budget for the whole
	// session. Backends propagate it to wherever execution lands (the
	// cluster dispatcher bounds failover with it and ships it to the
	// worker), so a stuck session cancels cleanly instead of pinning
	// resources forever. Zero means no deadline.
	Deadline time.Duration
	// Key, when non-empty, pins placement: backends with a consistent-
	// hash ring route equal keys to the same worker, so any frontend
	// sharing the fleet places (or resumes) the session identically.
	// Empty keys fall back to load-based placement.
	Key string
}

// Backend decides where sessions execute. The default runs them
// in-process; the cluster dispatcher places them on remote workers.
type Backend interface {
	// Open starts a session for the pipeline. Capacity failures are
	// tagged ErrUnavailable.
	Open(p *Pipeline, opts OpenOptions) (SessionHandle, error)
}

// StatsReporter is implemented by backends with their own gauges (the
// cluster dispatcher); /metrics inlines the report when present.
type StatsReporter interface {
	BackendStats() any
}

// Readiness summarizes whether a backend can currently place sessions.
type Readiness struct {
	// Status is "ok", "degraded" (capacity reduced but sessions still
	// place, e.g. some cluster workers down or draining), or
	// "unavailable" (no placement possible).
	Status string `json:"status"`
	// Detail explains a non-ok status for humans.
	Detail string `json:"detail,omitempty"`
}

// ReadinessReporter is implemented by backends that can distinguish
// degraded from healthy capacity; /healthz/ready inlines the report.
type ReadinessReporter interface {
	Readiness() Readiness
}

// localBackend executes sessions in-process, preserving the original
// single-binary behavior.
type localBackend struct{}

func (localBackend) Open(p *Pipeline, opts OpenOptions) (SessionHandle, error) {
	return p.NewSession(runtime.SessionOptions{MaxInFlight: opts.MaxInFlight})
}

// releaseOutputs ends the caller's reference on every collected window
// once it has been encoded onto the response, and hands the lists that
// carried them back for a later frame. In-process windows are unpooled
// slab copies (only the list recycles); cluster results are arena
// windows that return to the pool here.
func releaseOutputs(outs map[string][]frame.Window) {
	for _, ws := range outs {
		frame.ReleaseList(ws)
	}
}

var _ SessionHandle = (*runtime.Session)(nil)
