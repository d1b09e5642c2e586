package blockpar_test

// BenchmarkSuiteApps measures the functional runtime's time and
// allocation behavior on Figure 13 suite applications, one row per app
// (4 frames per op). Run with -benchmem; the headline is allocs/op.

import (
	"testing"

	"blockpar"
	"blockpar/internal/apps"
	"blockpar/internal/core"
)

func BenchmarkSuiteApps(b *testing.B) {
	for _, id := range []string{"1", "2", "4", "5", "1u8", "4f32", "MC", "WC"} {
		app, err := apps.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		compiled, err := core.Compile(app.Graph, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Behaviors are stateful, so each run needs a fresh clone;
				// the clone is harness cost, not data plane, and stays
				// outside the timer.
				b.StopTimer()
				g := compiled.Graph.Clone()
				b.StartTimer()
				if _, err := blockpar.Run(g, blockpar.RunOptions{Frames: 4, Sources: app.Sources}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
