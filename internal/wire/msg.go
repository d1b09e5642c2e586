package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"blockpar/internal/frame"
)

// MsgType identifies one frame kind on a cluster connection.
type MsgType uint8

// The frame catalogue. Frontend → worker: Hello, EnsurePipeline,
// OpenPartition, Feed, CloseSession, Ping. Worker → frontend: Welcome,
// PipelineReady, SessionOpened, Result, Credit, SessionClosed, Goaway,
// Pong. Error flows both ways, and so do the cut-edge streams of a
// session split across workers (EdgeFrame, EdgeCredit), relayed
// between workers by the frontend. Register, RegisterAck, Heartbeat
// and Deregister travel on the registration plane.
const (
	TypeHello MsgType = iota + 1
	TypeWelcome
	TypeEnsurePipeline
	TypePipelineReady
	TypeSessionOpened
	TypeFeed
	TypeResult
	TypeCredit
	TypeCloseSession
	TypeSessionClosed
	TypeError
	TypePing
	TypePong
	TypeGoaway
	TypeOpenPartition
	TypeEdgeFrame
	TypeEdgeCredit
	TypeRegister
	TypeRegisterAck
	TypeHeartbeat
	TypeDeregister
)

func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeWelcome:
		return "welcome"
	case TypeEnsurePipeline:
		return "ensure-pipeline"
	case TypePipelineReady:
		return "pipeline-ready"
	case TypeSessionOpened:
		return "session-opened"
	case TypeFeed:
		return "feed"
	case TypeResult:
		return "result"
	case TypeCredit:
		return "credit"
	case TypeCloseSession:
		return "close-session"
	case TypeSessionClosed:
		return "session-closed"
	case TypeError:
		return "error"
	case TypePing:
		return "ping"
	case TypePong:
		return "pong"
	case TypeGoaway:
		return "goaway"
	case TypeOpenPartition:
		return "open-partition"
	case TypeEdgeFrame:
		return "edge-frame"
	case TypeEdgeCredit:
		return "edge-credit"
	case TypeRegister:
		return "register"
	case TypeRegisterAck:
		return "register-ack"
	case TypeHeartbeat:
		return "heartbeat"
	case TypeDeregister:
		return "deregister"
	default:
		return "unknown"
	}
}

// Msg is one decoded frame.
type Msg interface {
	Type() MsgType
	// append encodes the payload (everything after the type byte).
	append(b []byte) []byte
	// decode parses the payload, leaving the reader fully consumed.
	decode(r *reader)
}

// Hello opens a connection (frontend → worker): magic plus protocol
// version, refused on mismatch before anything else is parsed.
type Hello struct {
	Version uint16
}

func (*Hello) Type() MsgType { return TypeHello }
func (m *Hello) append(b []byte) []byte {
	b = appendU32(b, Magic)
	return appendU16(b, m.Version)
}
func (m *Hello) decode(r *reader) {
	if magic := r.u32("hello magic"); r.err == nil && magic != Magic {
		r.err = corruptf("bad magic %#x", magic)
		return
	}
	m.Version = r.u16("hello version")
}

// Welcome acknowledges the handshake (worker → frontend) and inventories
// the worker's already-compiled pipelines.
type Welcome struct {
	Version   uint16
	Worker    string
	Pipelines []string
}

func (*Welcome) Type() MsgType { return TypeWelcome }
func (m *Welcome) append(b []byte) []byte {
	b = appendU16(b, m.Version)
	b = appendStr(b, m.Worker)
	b = appendU32(b, uint32(len(m.Pipelines)))
	for _, p := range m.Pipelines {
		b = appendStr(b, p)
	}
	return b
}
func (m *Welcome) decode(r *reader) {
	m.Version = r.u16("welcome version")
	m.Worker = r.str("welcome worker")
	n := int(r.u32("welcome pipeline count"))
	if r.err != nil {
		return
	}
	if n > maxStr {
		r.err = corruptf("welcome pipeline count %d out of range", n)
		return
	}
	for i := 0; i < n && r.err == nil; i++ {
		m.Pipelines = append(m.Pipelines, r.str("welcome pipeline"))
	}
}

// EnsurePipeline asks the worker to make a pipeline available before a
// session opens on it: by local registry lookup, by compiling the
// attached JSON descriptor, or by compiling the named suite benchmark.
type EnsurePipeline struct {
	ID string
	// Source mirrors serve.Pipeline.Source ("suite" or "json").
	Source string
	// Desc carries the JSON descriptor when Source is "json".
	Desc []byte
}

func (*EnsurePipeline) Type() MsgType { return TypeEnsurePipeline }
func (m *EnsurePipeline) append(b []byte) []byte {
	b = appendStr(b, m.ID)
	b = appendStr(b, m.Source)
	return appendBytes(b, m.Desc)
}
func (m *EnsurePipeline) decode(r *reader) {
	m.ID = r.str("ensure id")
	m.Source = r.str("ensure source")
	m.Desc = r.bytes("ensure descriptor")
}

// PipelineReady answers EnsurePipeline.
type PipelineReady struct {
	ID  string
	Err string
}

func (*PipelineReady) Type() MsgType { return TypePipelineReady }
func (m *PipelineReady) append(b []byte) []byte {
	b = appendStr(b, m.ID)
	return appendStr(b, m.Err)
}
func (m *PipelineReady) decode(r *reader) {
	m.ID = r.str("ready id")
	m.Err = r.str("ready err")
}

// SessionOpened answers OpenPartition.
type SessionOpened struct {
	SID uint64
	Err string
}

func (*SessionOpened) Type() MsgType { return TypeSessionOpened }
func (m *SessionOpened) append(b []byte) []byte {
	b = appendU64(b, m.SID)
	return appendStr(b, m.Err)
}
func (m *SessionOpened) decode(r *reader) {
	m.SID = r.u64("opened sid")
	m.Err = r.str("opened err")
}

// NamedWindow pairs an input name with its frame window.
type NamedWindow struct {
	Name string
	Win  frame.Window
}

// Feed delivers one frame's explicit inputs; inputs absent from the
// list are generated worker-side from the pipeline's sources, exactly
// like a local session. Seq is the frontend's feed index for the
// session and must match the worker's, or the session is torn down.
type Feed struct {
	SID    uint64
	Seq    int64
	Inputs []NamedWindow
}

func (*Feed) Type() MsgType { return TypeFeed }
func (m *Feed) append(b []byte) []byte {
	b = appendU64(b, m.SID)
	b = appendI64(b, m.Seq)
	b = appendU16(b, uint16(len(m.Inputs)))
	for _, in := range m.Inputs {
		b = appendStr(b, in.Name)
		b = AppendWindow(b, in.Win)
	}
	return b
}
func (m *Feed) decode(r *reader) {
	m.SID = r.u64("feed sid")
	m.Seq = r.i64("feed seq")
	// An input is at least its name's length prefix and an empty window.
	n := r.count(int(r.u16("feed input count")), 4+minWindowBytes, "feed input count")
	if n > 0 {
		m.Inputs = make([]NamedWindow, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		name := r.str("feed input name")
		win := decodeWindow(r)
		m.Inputs = append(m.Inputs, NamedWindow{Name: name, Win: win})
	}
	if r.err != nil {
		releaseWindows(m.Inputs)
		m.Inputs = nil
	}
}

// NamedWindows pairs an output name with its windows for one frame.
type NamedWindows struct {
	Name string
	Wins []frame.Window
}

// Result carries one completed frame's outputs back to the frontend:
// for every application output, the data windows it produced for frame
// Seq, in stream order.
type Result struct {
	SID     uint64
	Seq     int64
	Outputs []NamedWindows
}

func (*Result) Type() MsgType { return TypeResult }
func (m *Result) append(b []byte) []byte {
	b = appendU64(b, m.SID)
	b = appendI64(b, m.Seq)
	b = appendU16(b, uint16(len(m.Outputs)))
	for _, out := range m.Outputs {
		b = appendStr(b, out.Name)
		b = appendU32(b, uint32(len(out.Wins)))
		for _, w := range out.Wins {
			b = AppendWindow(b, w)
		}
	}
	return b
}
func (m *Result) decode(r *reader) {
	m.SID = r.u64("result sid")
	m.Seq = r.i64("result seq")
	// An output is at least its name's length prefix and a window count.
	n := r.count(int(r.u16("result output count")), 4+4, "result output count")
	if n > 0 {
		m.Outputs = make([]NamedWindows, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		out := NamedWindows{Name: r.str("result output name")}
		wn := r.count(int(r.u32("result window count")), minWindowBytes, "result window count")
		if r.err == nil {
			out.Wins = decodeWindows(r, wn)
		}
		m.Outputs = append(m.Outputs, out)
	}
	if r.err != nil {
		releaseMsgWindows(m)
	}
}

// Credit returns N feed credits to the frontend (worker → frontend):
// the worker grants one per result delivered, so the frontend's credit
// balance mirrors the runtime session's fed-minus-collected bound.
type Credit struct {
	SID uint64
	N   uint32
}

func (*Credit) Type() MsgType { return TypeCredit }
func (m *Credit) append(b []byte) []byte {
	b = appendU64(b, m.SID)
	return appendU32(b, m.N)
}
func (m *Credit) decode(r *reader) {
	m.SID = r.u64("credit sid")
	m.N = r.u32("credit n")
}

// CloseSession asks the worker to finish the session: remaining fed
// frames run to completion and their results flush before
// SessionClosed confirms.
type CloseSession struct {
	SID uint64
}

func (*CloseSession) Type() MsgType            { return TypeCloseSession }
func (m *CloseSession) append(b []byte) []byte { return appendU64(b, m.SID) }
func (m *CloseSession) decode(r *reader)       { m.SID = r.u64("close sid") }

// SessionClosed reports a session's end — an answer to CloseSession,
// or unsolicited when the session failed or the worker is draining.
type SessionClosed struct {
	SID       uint64
	Completed int64
	Err       string
}

func (*SessionClosed) Type() MsgType { return TypeSessionClosed }
func (m *SessionClosed) append(b []byte) []byte {
	b = appendU64(b, m.SID)
	b = appendI64(b, m.Completed)
	return appendStr(b, m.Err)
}
func (m *SessionClosed) decode(r *reader) {
	m.SID = r.u64("closed sid")
	m.Completed = r.i64("closed completed")
	m.Err = r.str("closed err")
}

// Error reports a failure scoped to one session (SID non-zero) or to
// the whole connection (SID zero, after which the sender closes it).
type Error struct {
	SID uint64
	Msg string
}

func (*Error) Type() MsgType { return TypeError }
func (m *Error) append(b []byte) []byte {
	b = appendU64(b, m.SID)
	return appendStr(b, m.Msg)
}
func (m *Error) decode(r *reader) {
	m.SID = r.u64("error sid")
	m.Msg = r.str("error msg")
}

// Ping is the frontend's liveness probe; the worker echoes the nonce
// back in a Pong.
type Ping struct{ Nonce uint64 }

func (*Ping) Type() MsgType            { return TypePing }
func (m *Ping) append(b []byte) []byte { return appendU64(b, m.Nonce) }
func (m *Ping) decode(r *reader)       { m.Nonce = r.u64("ping nonce") }

// Pong answers Ping.
type Pong struct{ Nonce uint64 }

func (*Pong) Type() MsgType            { return TypePong }
func (m *Pong) append(b []byte) []byte { return appendU64(b, m.Nonce) }
func (m *Pong) decode(r *reader)       { m.Nonce = r.u64("pong nonce") }

// Goaway tells the frontend to stop placing sessions on this worker
// (graceful drain); existing sessions keep running until closed.
type Goaway struct{ Reason string }

func (*Goaway) Type() MsgType            { return TypeGoaway }
func (m *Goaway) append(b []byte) []byte { return appendStr(b, m.Reason) }
func (m *Goaway) decode(r *reader)       { m.Reason = r.str("goaway reason") }

// Register announces a worker to a frontend's fleet registry (worker →
// frontend, over a registration connection the worker dialed — the
// inversion of the session plane, where the frontend dials the worker's
// data address). Addr is the data-plane address frontends connect to
// for sessions; CyclesPerSec is the worker's execution capacity in the
// machine model's cycles/sec (PEs × PE clock), the unit the analysis
// prices pipelines in, so admission control can compare fleet capacity
// against projected pipeline load directly. The worker's pipeline
// inventory travels on the data plane, in Welcome.
type Register struct {
	Name         string
	Addr         string
	CyclesPerSec float64
}

func (*Register) Type() MsgType { return TypeRegister }
func (m *Register) append(b []byte) []byte {
	b = appendStr(b, m.Name)
	b = appendStr(b, m.Addr)
	return appendF64(b, m.CyclesPerSec)
}
func (m *Register) decode(r *reader) {
	m.Name = r.str("register name")
	m.Addr = r.str("register addr")
	m.CyclesPerSec = r.f64("register capacity")
}

// RegisterAck answers Register. LeaseMs is the membership lease the
// frontend granted: the worker must heartbeat within it or be evicted
// from the fleet (and from every frontend's placement ring).
type RegisterAck struct {
	Err     string
	LeaseMs uint32
}

func (*RegisterAck) Type() MsgType { return TypeRegisterAck }
func (m *RegisterAck) append(b []byte) []byte {
	b = appendStr(b, m.Err)
	return appendU32(b, m.LeaseMs)
}
func (m *RegisterAck) decode(r *reader) {
	m.Err = r.str("register-ack err")
	m.LeaseMs = r.u32("register-ack lease-ms")
}

// Heartbeat renews a registration lease (worker → frontend). It has no
// payload: a drain is announced by the worker's Goaway on each data
// connection, and a worker's load is the sessions the frontend itself
// placed there.
type Heartbeat struct{}

func (*Heartbeat) Type() MsgType          { return TypeHeartbeat }
func (*Heartbeat) append(b []byte) []byte { return b }
func (*Heartbeat) decode(*reader)         {}

// Deregister removes the worker from the fleet immediately (worker →
// frontend, on graceful drain). The frontend stops placing sessions on
// the worker and — critically — cancels its reconnect loop, so a
// drained worker is not pinged forever at a dead address.
type Deregister struct {
	Reason string
}

func (*Deregister) Type() MsgType            { return TypeDeregister }
func (m *Deregister) append(b []byte) []byte { return appendStr(b, m.Reason) }
func (m *Deregister) decode(r *reader)       { m.Reason = r.str("deregister reason") }

// newMsg returns an empty message of the given type.
func newMsg(t MsgType) Msg {
	switch t {
	case TypeHello:
		return &Hello{}
	case TypeWelcome:
		return &Welcome{}
	case TypeEnsurePipeline:
		return &EnsurePipeline{}
	case TypePipelineReady:
		return &PipelineReady{}
	case TypeSessionOpened:
		return &SessionOpened{}
	case TypeFeed:
		return &Feed{}
	case TypeResult:
		return &Result{}
	case TypeCredit:
		return &Credit{}
	case TypeCloseSession:
		return &CloseSession{}
	case TypeSessionClosed:
		return &SessionClosed{}
	case TypeError:
		return &Error{}
	case TypePing:
		return &Ping{}
	case TypePong:
		return &Pong{}
	case TypeGoaway:
		return &Goaway{}
	case TypeOpenPartition:
		return &OpenPartition{}
	case TypeEdgeFrame:
		return edgeFrames.Get().(*EdgeFrame)
	case TypeEdgeCredit:
		return &EdgeCredit{}
	case TypeRegister:
		return &Register{}
	case TypeRegisterAck:
		return &RegisterAck{}
	case TypeHeartbeat:
		return &Heartbeat{}
	case TypeDeregister:
		return &Deregister{}
	default:
		return nil
	}
}

// Decode parses one frame body (the type byte's payload) into a
// message. Decoded windows come from the frame arena, and so does a
// received EdgeFrame's slab; on error all of it has been released.
func Decode(t MsgType, payload []byte) (Msg, error) {
	return decode(new(reader), t, payload)
}

// decode is Decode through a caller-owned reader (a connection reuses
// one for every frame).
func decode(r *reader, t MsgType, payload []byte) (Msg, error) {
	m := newMsg(t)
	if m == nil {
		return nil, corruptf("unknown frame type %d", t)
	}
	*r = reader{b: payload}
	m.decode(r)
	if err := r.finish(); err != nil {
		// The per-message decoders release on their own errors, but a
		// trailing-bytes failure surfaces only here, after a decode
		// that pulled windows from the arena succeeded.
		releaseMsgWindows(m)
		return nil, fmt.Errorf("%s: %w", t, err)
	}
	return m, nil
}

// releaseMsgWindows returns every pooled window a decoded message owns
// to the arena. Safe to call after the decoders' own error cleanup:
// they nil the slices they release.
func releaseMsgWindows(m Msg) {
	switch m := m.(type) {
	case *Feed:
		releaseWindows(m.Inputs)
		m.Inputs = nil
	case *Result:
		for _, out := range m.Outputs {
			frame.ReleaseList(out.Wins)
		}
		m.Outputs = nil
	case *EdgeFrame:
		m.Slab.Release()
		m.Slab = Slab{}
	}
}

// checkEncodable rejects messages whose element counts overflow their
// wire fields, before any bytes are emitted: a u16 count that silently
// truncated would produce a frame the peer decodes as trailing garbage,
// tearing down the whole connection instead of failing the one send.
func checkEncodable(m Msg) error {
	switch m := m.(type) {
	case *Feed:
		if len(m.Inputs) > math.MaxUint16 {
			return fmt.Errorf("wire: feed carries %d inputs, max %d", len(m.Inputs), math.MaxUint16)
		}
	case *Result:
		if len(m.Outputs) > math.MaxUint16 {
			return fmt.Errorf("wire: result carries %d outputs, max %d", len(m.Outputs), math.MaxUint16)
		}
	case *OpenPartition:
		if len(m.Nodes) > math.MaxUint16 {
			return fmt.Errorf("wire: open-partition carries %d nodes, max %d", len(m.Nodes), math.MaxUint16)
		}
		if len(m.Edges) > math.MaxUint16 {
			return fmt.Errorf("wire: open-partition carries %d edges, max %d", len(m.Edges), math.MaxUint16)
		}
		if len(m.Resume) > math.MaxUint16 {
			return fmt.Errorf("wire: open-partition carries %d resume marks, max %d", len(m.Resume), math.MaxUint16)
		}
	case *EdgeFrame:
		if len(m.Items) > math.MaxUint16 {
			return fmt.Errorf("wire: edge-frame carries %d items, max %d", len(m.Items), math.MaxUint16)
		}
	}
	return nil
}

// Append encodes a message as a complete frame — u32 length, u8 type,
// payload — appended to b.
func Append(b []byte, m Msg) []byte {
	start := len(b)
	b = appendU32(b, 0) // length backfilled below
	b = append(b, byte(m.Type()))
	b = m.append(b)
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}
