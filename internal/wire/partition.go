package wire

import (
	"sync"

	"blockpar/internal/frame"
)

// The partition plane: a session is a plan of one or more partitions of
// a pipeline's compiled graph, each placed on a worker, and the cut
// edges between partitions are explicit item streams relayed through
// the frontend. OpenPartition places one partition (a node subset plus
// its cut-edge endpoints) — fresh, or resuming after its previous
// worker died or drained — EdgeFrame moves items across a cut edge, and
// EdgeCredit returns consumption credits so a cut edge buffers no more
// than its credit window: the item count placement computes for each
// cut (placement.CutEdge.Credit).
// A session that runs whole is the one-partition plan: every node, no
// edges.

// Cut-edge directions, relative to the partition receiving the
// OpenPartition: EdgeIn streams arrive via EdgeFrame, EdgeOut streams
// are produced by the partition and shipped out.
const (
	EdgeIn  uint8 = 0
	EdgeOut uint8 = 1
)

// EdgeSpec describes one cut-edge endpoint inside an OpenPartition:
// the original graph edge it replaces (by node/port names in the
// compiled graph) and the credit window bounding items in flight.
type EdgeSpec struct {
	ID     uint32
	Dir    uint8
	Credit uint32

	FromNode string
	FromPort string
	ToNode   string
	ToPort   string
}

// EdgeResume is one outbound cut edge's resume watermark inside an
// OpenPartition: SkipItems is the number of items the previous instance
// already shipped (and the frontend already relayed to the consumer),
// so the new instance re-produces the stream from the start and
// discards that prefix without consuming credits. Inbound edges need
// no worker-side watermark — the frontend replays their logged items
// and swallows the already-relayed credit returns itself, because the
// replay is paced by exactly those credits.
type EdgeResume struct {
	Edge      uint32
	SkipItems uint64
}

// OpenPartition places one partition of a session on the worker. The
// worker clones the named pipeline's compiled graph, keeps only Nodes,
// splices boundary shims onto the cut edges, and runs the remainder as
// a streaming session under SID. SID is chosen by the frontend and
// namespaces every session-scoped frame that follows; MaxInFlight
// sizes the worker's feed queue (mirroring the runtime's bounded frame
// queue). DeadlineMs, when nonzero, is a wall-clock budget for the
// whole session: the worker aborts it with a typed error once it
// expires, so a stuck replay or an abandoned frontend can never pin
// worker state forever. Partition is the plan index, for diagnostics.
//
// ResumeResults and Resume are zero/empty on a fresh open. When the
// partition resumes on a new worker, ResumeResults is the session's
// result-delivery watermark (results below it were already delivered
// and are suppressed, though their feed credits still flow so replay
// stays paced), and Resume carries one skip watermark per outbound cut
// edge.
type OpenPartition struct {
	SID           uint64
	Pipeline      string
	Partition     uint32
	MaxInFlight   uint32
	DeadlineMs    uint32
	ResumeResults int64
	Nodes         []string
	Edges         []EdgeSpec
	Resume        []EdgeResume
}

func (*OpenPartition) Type() MsgType { return TypeOpenPartition }
func (m *OpenPartition) append(b []byte) []byte {
	b = appendU64(b, m.SID)
	b = appendStr(b, m.Pipeline)
	b = appendU32(b, m.Partition)
	b = appendU32(b, m.MaxInFlight)
	b = appendU32(b, m.DeadlineMs)
	b = appendI64(b, m.ResumeResults)
	b = appendU16(b, uint16(len(m.Nodes)))
	for _, n := range m.Nodes {
		b = appendStr(b, n)
	}
	b = appendU16(b, uint16(len(m.Edges)))
	for _, e := range m.Edges {
		b = appendU32(b, e.ID)
		b = append(b, e.Dir)
		b = appendU32(b, e.Credit)
		b = appendStr(b, e.FromNode)
		b = appendStr(b, e.FromPort)
		b = appendStr(b, e.ToNode)
		b = appendStr(b, e.ToPort)
	}
	b = appendU16(b, uint16(len(m.Resume)))
	for _, er := range m.Resume {
		b = appendU32(b, er.Edge)
		b = appendU64(b, er.SkipItems)
	}
	return b
}
func (m *OpenPartition) decode(r *reader) {
	m.SID = r.u64("open-partition sid")
	m.Pipeline = r.str("open-partition pipeline")
	m.Partition = r.u32("open-partition index")
	m.MaxInFlight = r.u32("open-partition max-in-flight")
	m.DeadlineMs = r.u32("open-partition deadline-ms")
	m.ResumeResults = r.i64("open-partition resume-results")
	if r.err == nil && m.ResumeResults < 0 {
		r.err = corruptf("open-partition resume-results %d negative", m.ResumeResults)
		return
	}
	nn := int(r.u16("open-partition node count"))
	for i := 0; i < nn && r.err == nil; i++ {
		m.Nodes = append(m.Nodes, r.str("open-partition node"))
	}
	en := int(r.u16("open-partition edge count"))
	for i := 0; i < en && r.err == nil; i++ {
		e := EdgeSpec{
			ID:     r.u32("edge id"),
			Dir:    r.u8("edge dir"),
			Credit: r.u32("edge credit"),
		}
		e.FromNode = r.str("edge from node")
		e.FromPort = r.str("edge from port")
		e.ToNode = r.str("edge to node")
		e.ToPort = r.str("edge to port")
		if r.err == nil && e.Dir != EdgeIn && e.Dir != EdgeOut {
			r.err = corruptf("edge dir %d out of range", e.Dir)
		}
		m.Edges = append(m.Edges, e)
	}
	rn := int(r.u16("open-partition resume count"))
	for i := 0; i < rn && r.err == nil; i++ {
		er := EdgeResume{
			Edge:      r.u32("resume edge"),
			SkipItems: r.u64("resume skip-items"),
		}
		if r.err == nil && !m.outbound(er.Edge) {
			r.err = corruptf("resume mark for edge %d, not an outbound edge of the partition", er.Edge)
		}
		m.Resume = append(m.Resume, er)
	}
}

// outbound reports whether the partition produces cut edge id.
func (m *OpenPartition) outbound(id uint32) bool {
	for _, e := range m.Edges {
		if e.ID == id && e.Dir == EdgeOut {
			return true
		}
	}
	return false
}

// EdgeFrame moves items across one cut edge: a batch of in-order
// channel items (data windows or control tokens) and, on the final
// frame, the end-of-stream flag. The sender must hold one credit per
// item; a receiver seeing its buffer overflow treats it as a protocol
// violation and aborts the session.
//
// A frame has two forms with one encoding. A producer fills Items. A
// received frame carries Slab instead: the read walks and validates
// every item header but materialises no window, so a relay or a replay
// log that needs only the header pays one arena buffer per frame, not
// one per item. Encoding a frame that carries a slab copies its bytes
// verbatim behind the frame's own SID, edge and EOS flag, which is how
// a relay retargets a frame and clears a repeated end-of-stream.
type EdgeFrame struct {
	SID   uint64
	Edge  uint32
	EOS   bool
	Items []Item
	Slab  Slab
}

// Slab is a received EdgeFrame's items, still encoded, in one arena
// byte buffer holding one reference. N and SampleBytes come from the
// header walk: the item count, and the sample bytes of the data windows
// at their native width (what a retained window charges a replay
// budget). The zero Slab carries no items.
type Slab struct {
	N           int
	SampleBytes int64
	buf         frame.Window // 1-row U8 window over the encoded items
}

// newSlab copies the encoded items b out of the read buffer into the
// arena.
func newSlab(b []byte, n int, sampleBytes int64) Slab {
	buf := frame.AllocUninit(frame.U8, len(b), 1)
	copy(buf.RowU8(0), b)
	return Slab{N: n, SampleBytes: sampleBytes, buf: buf}
}

func (s Slab) bytes() []byte {
	if s.N == 0 {
		return nil
	}
	return s.buf.RowU8(0)
}

// Retain adds n references to the slab's arena buffer.
func (s Slab) Retain(n int) { s.buf.Retain(n) }

// Release drops one reference to the slab's arena buffer.
func (s Slab) Release() { s.buf.Release() }

// Items decodes the slab's items into dst[:0] and returns the list:
// each data window's storage comes from the arena, one reference owned
// by the caller, and the slab keeps its own reference. The read that
// made the slab validated every item, so an error here means the slab
// was not made by a read.
func (s Slab) Items(dst []Item) ([]Item, error) {
	dst = dst[:0]
	r := reader{b: s.bytes()}
	for i := 0; i < s.N && r.err == nil; i++ {
		dst = append(dst, decodeItem(&r))
	}
	if err := r.finish(); err != nil {
		releaseItems(dst)
		clear(dst)
		return dst[:0], err
	}
	return dst, nil
}

// edgeFrames recycles received frames: a read takes one, and whoever
// ends the frame hands it back with Release.
var edgeFrames = sync.Pool{New: func() any { return new(EdgeFrame) }}

// Release ends a received frame: the slab's reference goes back to the
// arena and the frame itself to the reads that follow. The caller must
// not touch m afterwards. A frame built to be sent owns no slab and is
// never released.
func (m *EdgeFrame) Release() {
	m.Slab.Release()
	*m = EdgeFrame{}
	edgeFrames.Put(m)
}

func (*EdgeFrame) Type() MsgType { return TypeEdgeFrame }
func (m *EdgeFrame) append(b []byte) []byte {
	b = appendU64(b, m.SID)
	b = appendU32(b, m.Edge)
	var flags byte
	if m.EOS {
		flags = 1
	}
	b = append(b, flags)
	if m.Slab.N > 0 {
		b = appendU16(b, uint16(m.Slab.N))
		return append(b, m.Slab.bytes()...)
	}
	b = appendU16(b, uint16(len(m.Items)))
	for _, it := range m.Items {
		b = AppendItem(b, it)
	}
	return b
}

// decode walks the items' headers and keeps them encoded as a slab.
func (m *EdgeFrame) decode(r *reader) {
	m.SID = r.u64("edge-frame sid")
	m.Edge = r.u32("edge-frame edge")
	flags := r.u8("edge-frame flags")
	if r.err == nil && flags > 1 {
		r.err = corruptf("edge-frame flags %#x out of range", flags)
		return
	}
	m.EOS = flags == 1
	n := r.count(int(r.u16("edge-frame item count")), minItemBytes, "edge-frame item count")
	start := r.off
	var sz int64
	for i := 0; i < n && r.err == nil; i++ {
		sz += skipItem(r)
	}
	if r.err == nil && n > 0 {
		m.Slab = newSlab(r.b[start:r.off], n, sz)
	}
}

// releaseItems returns the data windows of decoded items to the arena.
func releaseItems(items []Item) {
	for _, it := range items {
		if !it.IsToken {
			it.Win.Release()
		}
	}
}

// EdgeCredit returns N item credits for one cut edge, flowing from the
// consuming partition back to the producing one as the boundary source
// forwards items into the consumer's graph.
type EdgeCredit struct {
	SID  uint64
	Edge uint32
	N    uint32
}

func (*EdgeCredit) Type() MsgType { return TypeEdgeCredit }
func (m *EdgeCredit) append(b []byte) []byte {
	b = appendU64(b, m.SID)
	b = appendU32(b, m.Edge)
	return appendU32(b, m.N)
}
func (m *EdgeCredit) decode(r *reader) {
	m.SID = r.u64("edge-credit sid")
	m.Edge = r.u32("edge-credit edge")
	m.N = r.u32("edge-credit n")
}
