package sim

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"blockpar/internal/apps"
	"blockpar/internal/machine"
	"blockpar/internal/mapping"
)

const fingerprintGolden = "testdata/suite_fingerprint.golden"

// suiteFingerprint renders every number the simulator reports for each
// Figure 13 suite app (compiled with the default configuration, one
// kernel per PE, two frames), one line per app and per PE, floats in
// Go's shortest round-trip form so any change to the firing order or the
// cost accounting shows up.
func suiteFingerprint(t *testing.T) string {
	var b strings.Builder
	for _, bench := range apps.Figure13Suite() {
		c := compiledApp(t, bench)
		res, err := Simulate(c.Graph, mapping.OneToOne(c.Graph), Options{Machine: machine.Embedded(), Frames: 2})
		if err != nil {
			t.Fatalf("%s: %v", bench.ID, err)
		}
		fmt.Fprintf(&b, "%s Time=%v InputStalls=%v StallTime=%v\n", bench.ID, res.Time, res.InputStalls, res.StallTime)
		for i, pe := range res.PEs {
			fmt.Fprintf(&b, "%s PE%d Run=%v Read=%v Write=%v Firings=%v\n", bench.ID, i, pe.Run, pe.Read, pe.Write, pe.Firings)
		}
		outs := make([]string, 0, len(res.OutputCounts))
		for name := range res.OutputCounts {
			outs = append(outs, name)
		}
		sort.Strings(outs)
		for _, name := range outs {
			fmt.Fprintf(&b, "%s out %s %v latencies %v\n", bench.ID, name, res.OutputCounts[name], res.Latencies[name])
		}
	}
	return b.String()
}

// TestSimSuiteFingerprint pins the simulator's numbers for the whole
// suite against a recorded golden file: a refactoring of the firing
// rules must leave every app's timing, stalls, per-PE breakdown, output
// tallies and latencies unchanged, line for line.
func TestSimSuiteFingerprint(t *testing.T) {
	want, err := os.ReadFile(fingerprintGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := suiteFingerprint(t)
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
