package wire

// The partition plane: a session is a plan of one or more partitions of
// a pipeline's compiled graph, each placed on a worker, and the cut
// edges between partitions are explicit item streams relayed through
// the frontend. OpenPartition places one partition (a node subset plus
// its cut-edge endpoints) — fresh, or resuming after its previous
// worker died or drained — EdgeFrame moves items across a cut edge, and
// EdgeCredit returns consumption credits so a cut edge buffers no more
// than its window, mirroring the bounded mailboxes the edge replaced.
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
type EdgeFrame struct {
	SID   uint64
	Edge  uint32
	EOS   bool
	Items []Item
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
	b = appendU16(b, uint16(len(m.Items)))
	for _, it := range m.Items {
		b = AppendItem(b, it)
	}
	return b
}
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
	if n > 0 {
		m.Items = make([]Item, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		m.Items = append(m.Items, decodeItem(r))
	}
	if r.err != nil {
		releaseItems(m.Items)
		m.Items = nil
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
