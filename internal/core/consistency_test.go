package core

import (
	"testing"

	"blockpar/internal/apps"
	"blockpar/internal/runtime"
)

// TestAnalysisPredictsRuntimeFirings is the analysis↔execution
// consistency property: for every compiled suite benchmark, the
// data-flow analysis' predicted per-method invocation counts (§III-A's
// iteration sizes) must equal the functional runtime's actual firing
// counts, method by method, for every kernel in the transformed graph —
// an FSM kernel's one method counting the data items it took. A mismatch means the static model and the execution semantics
// disagree — exactly the kind of drift that would silently break the
// real-time guarantees.
func TestAnalysisPredictsRuntimeFirings(t *testing.T) {
	const frames = 2
	for _, b := range apps.Figure13Suite() {
		b := b
		t.Run(b.ID, func(t *testing.T) {
			c, err := Compile(b.App.Graph, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			res, err := runtime.Run(c.Graph, runtime.Options{Frames: frames, Sources: b.App.Sources})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range c.Graph.Nodes() {
				if len(n.Methods()) == 0 {
					continue // inputs and outputs
				}
				ni := c.Analysis.NodeInfoOf(n)
				actual := res.Firings[n.Name()]
				for method, mi := range ni.Methods {
					want := mi.Invocations() * frames
					if got := actual[method]; got != want {
						t.Errorf("%s %s.%s: runtime fired %d times, analysis predicted %d",
							b.ID, n.Name(), method, got, want)
					}
				}
			}
		})
	}
}
