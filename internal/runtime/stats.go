package runtime

// NodeStats is a snapshot of one node's counter block: how often its
// methods fired, how many items reached it, and how full its input
// rings have been against the capacity the plan gave them. There are no
// timing fields: busy, starved and blocked time need a clock read per
// firing, which is priced separately.
type NodeStats struct {
	Node string
	// Firings counts logical method invocations by method: an ordinary
	// kernel's firings, and for an FSM kernel's one method the data items
	// its steps took (inputs, outputs and boundary shims have no methods
	// and report none). A batched firing or a step taking a row span
	// counts its N logical items, so the numbers equal the analysis'
	// predicted iteration counts with batching on or off.
	Firings map[string]int64
	// Deliveries counts the items delivered into the node's rings.
	Deliveries int64
	// Rings has one entry per input port, in port order.
	Rings []RingStats
}

// RingStats describes one input ring.
type RingStats struct {
	Input string
	// Capacity is the plan-time capacity in items (plan.go, "ring
	// capacity"); the ring was allocated at this size.
	Capacity int
	// HighWater is the largest occupancy seen. It exceeds Capacity only
	// if the ring had to grow, which only the deadlock detector does:
	// the planned capacity was too small for the graph's skew.
	HighWater int
}

// Stats returns every node's counters, in graph order, without
// stopping or pausing the session: firing counts are read atomically
// and each node's ring gauges under its own inbox lock.
func (s *Session) Stats() []NodeStats { return s.ex.stats() }

func (ex *executor) stats() []NodeStats {
	out := make([]NodeStats, len(ex.boxes))
	for i := range ex.boxes {
		ib, pn := &ex.boxes[i], &ex.plan.nodes[i]
		st := &out[i]
		st.Node = pn.node.Name()
		for mi := range ib.fired {
			if n := ib.fired[mi].Load(); n > 0 {
				if st.Firings == nil {
					st.Firings = make(map[string]int64)
				}
				st.Firings[pn.node.Methods()[mi].Name] = n
			}
		}
		st.Rings = make([]RingStats, len(ib.rings))
		ib.mu.Lock()
		st.Deliveries = ib.deliveries
		for k := range ib.rings {
			st.Rings[k] = RingStats{Input: pn.ins[k].name, Capacity: pn.ins[k].cap, HighWater: ib.rings[k].HighWater()}
		}
		ib.mu.Unlock()
	}
	return out
}
