package sim

import (
	"testing"

	"blockpar/internal/apps"
	"blockpar/internal/machine"
	"blockpar/internal/mapping"
)

// TestSimAllocsPerFiring gates the simulator's steady state: port
// queues are rings that stop growing once warm, the event heap holds
// events unboxed and the output list is built once, so what one more
// frame allocates is a small fraction of an allocation per firing.
func TestSimAllocsPerFiring(t *testing.T) {
	bench, err := apps.ByID("BF")
	if err != nil {
		t.Fatal(err)
	}
	c := compiledApp(t, apps.Bench{ID: "BF", App: bench})
	m := machine.Embedded()
	assign, err := mapping.Greedy(c.Graph, c.Analysis, m)
	if err != nil {
		t.Fatal(err)
	}
	run := func(frames int) (allocs float64, firings int64) {
		allocs = testing.AllocsPerRun(1, func() {
			res, err := Simulate(c.Graph, assign, Options{Machine: m, Frames: frames})
			if err != nil {
				t.Fatal(err)
			}
			firings = 0
			for _, pe := range res.PEs {
				firings += pe.Firings
			}
		})
		return allocs, firings
	}
	a2, f2 := run(2)
	a4, f4 := run(4)
	if f4 <= f2 {
		t.Fatalf("%d firings at 4 frames, %d at 2", f4, f2)
	}
	per := (a4 - a2) / float64(f4-f2)
	t.Logf("%.0f allocs for %d firings at 2 frames, %.0f for %d at 4: %.3f per added firing", a2, f2, a4, f4, per)
	if per >= 0.25 {
		t.Errorf("%.2f allocs per added firing, want < 0.25", per)
	}
}
