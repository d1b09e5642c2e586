package conformance

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"blockpar/internal/apps"
	"blockpar/internal/conn"
	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/kernel"
	"blockpar/internal/machine"
	"blockpar/internal/serve"
)

// connApps builds the generalized-connection benchmark pair at the
// suite dimensions: MC (broadcast + windowed sharing + stride-1
// gathers) and WC (strided scatter-gather with a broadcast taps input).
func connApps() []*apps.App {
	return []*apps.App{
		apps.MultiCam("multicam", apps.MultiCamCfg{W: 20, H: 12, Rate: geom.FInt(10)}),
		apps.Channelizer("channelizer", apps.ChannelizerCfg{W: 240, H: 4, Rate: geom.FInt(10)}),
	}
}

// TestOracleMatchesConnAppGoldens anchors the oracle's scatter, gather,
// and shared-window semantics against the hand-computed goldens of the
// connection benchmarks, the same cross-check TestOracleMatchesAppGoldens
// applies to the paper suite.
func TestOracleMatchesConnAppGoldens(t *testing.T) {
	const frames = 2
	for _, app := range connApps() {
		t.Run(app.Name, func(t *testing.T) {
			c := &Case{Name: app.Name, Graph: app.Graph, Sources: app.Sources}
			got, err := OracleFrames(c, frames)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			for f := 0; f < frames; f++ {
				want := app.Golden(int64(f))
				for name, ws := range want {
					if err := compareWindows(got[f][name], ws); err != nil {
						t.Errorf("output %q frame %d: %v", name, f, err)
					}
				}
			}
		})
	}
}

// TestDiffConnApps is the acceptance bar for the connection subsystem:
// both benchmarks must stream byte-identically to the oracle through
// the batch runtime, a streaming session, the simulator, a loopback
// cluster session, and a partitioned session split by the placement
// layer across a 2-worker fleet — at every compilation variant.
// Broadcast fan-out crossing a partition cut and the co-located shared
// rings both ride this test.
func TestDiffConnApps(t *testing.T) {
	backends := append(DefaultBackends(), "cluster", "partitioned")
	for _, app := range connApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			c := &Case{Name: app.Name, Graph: app.Graph, Sources: app.Sources}
			if err := Check(c, CheckOptions{Backends: backends}); err != nil {
				t.Fatalf("app %s: %v", app.Name, err)
			}
		})
	}
}

// TestServeConnApps extends the bar across the HTTP boundary: the
// connection benchmarks registered with a serve registry must stream
// their hand-computed goldens exactly over the wire.
func TestServeConnApps(t *testing.T) {
	reg := serve.NewRegistry(machine.Default())
	srv := serve.NewServer(reg, serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const frames = 2
	for _, app := range connApps() {
		t.Run(app.Name, func(t *testing.T) {
			if _, err := reg.AddApp(app.Name, "conn", app); err != nil {
				t.Fatalf("register: %v", err)
			}
			var open struct {
				Session string `json:"session"`
			}
			postJSON(t, ts, "/sessions", map[string]any{"pipeline": app.Name}, http.StatusCreated, &open)
			for f := 0; f < frames; f++ {
				var rep struct {
					Outputs map[string][]serve.WindowJSON `json:"outputs"`
				}
				postJSON(t, ts, "/sessions/"+open.Session+"/process", nil, http.StatusOK, &rep)
				for name, ws := range app.Golden(int64(f)) {
					got := make([]frame.Window, len(rep.Outputs[name]))
					for i, jw := range rep.Outputs[name] {
						w, err := jw.ToWindow()
						if err != nil {
							t.Fatalf("output %q window %d: %v", name, i, err)
						}
						got[i] = w
					}
					if err := compareWindows(got, ws); err != nil {
						t.Fatalf("output %q frame %d: %v", name, f, err)
					}
				}
			}
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+open.Session, nil)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		})
	}
}

// TestDiffConnSmoke is the per-PR smoke over the generalized-connection
// generator space: seeded scatter-gather chains, broadcast fan-outs,
// and shared-window pairs diffed across the default backends. CI runs
// it at -conformance.n=25.
func TestDiffConnSmoke(t *testing.T) {
	n := *nFlag
	if n > 25 {
		n = 25
	}
	if testing.Short() && n > 5 {
		n = 5
	}
	for i := 0; i < n; i++ {
		seed := *seedFlag + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c := GenerateConn(seed)
			if err := Check(c, CheckOptions{}); err != nil {
				t.Fatalf("case %s: %v", c.Name, err)
			}
		})
	}
}

// TestChaosBroadcastFanout is the kill campaign on broadcast fan-out:
// a stream fanned out to three consumers through a declared broadcast
// connection survives a mid-stream worker kill with byte-identical
// replay — the retained-reference fan-out must not leak arena windows
// or desynchronize any consumer across the failover.
func TestChaosBroadcastFanout(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos skipped in -short")
	}
	for i := 0; i < 3; i++ {
		seed := 2000 + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := graph.New("bcast-chaos")
			in := g.AddInput("Input", geom.Sz(12, 8), geom.Sz(1, 1), geom.FInt(10))
			tos := make([]*graph.Port, 3)
			for b := 0; b < 3; b++ {
				gain := g.Add(kernel.Gain(fmt.Sprintf("Gain%d", b), float64(b+1)))
				g.Connect(in, "out", gain, "in")
				tos[b] = gain.Input("in")
				out := g.AddOutput(fmt.Sprintf("out%d", b), geom.Sz(1, 1))
				g.Connect(gain, "out", out, "in")
			}
			g.AddConn("bcast", conn.Broadcast, in.Output("out"), tos)
			c := &Case{Name: "bcast-chaos", Graph: g, Sources: map[string]frame.Generator{"Input": frame.LCG}}
			if err := CheckChaos(c, seed, "kill"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScatterGatherPermutation pins the semantics of a MISMATCHED
// scatter/gather pair: the gather interleaves branches by its own
// schedule, so scatter {ways 2, stride 2} into gather {ways 2, stride
// 1} is a well-defined stream permutation — not an error — and every
// backend must realize the same one as the oracle.
func TestScatterGatherPermutation(t *testing.T) {
	build := func() (*graph.Graph, map[string]frame.Generator) {
		g := graph.New("sg-mismatch")
		in := g.AddInput("Input", geom.Sz(8, 2), geom.Sz(1, 1), geom.FInt(10))
		sc := g.Add(kernel.Scatter("Deal", conn.Schedule{Ways: 2, Stride: 2}, geom.Sz(1, 1)))
		ga := g.Add(kernel.Gather("Merge", conn.Schedule{Ways: 2, Stride: 1}, geom.Sz(1, 1)))
		out := g.AddOutput("result", geom.Sz(1, 1))
		g.Connect(in, "out", sc, "in")
		for b := 0; b < 2; b++ {
			gain := g.Add(kernel.Gain(fmt.Sprintf("Gain%d", b), float64(b+2)))
			g.Connect(sc, fmt.Sprintf("out%d", b), gain, "in")
			g.Connect(gain, "out", ga, fmt.Sprintf("in%d", b))
		}
		g.Connect(ga, "out", out, "in")
		return g, map[string]frame.Generator{"Input": frame.LCG}
	}

	// The oracle must realize exactly the hand-derived permutation:
	// scatter deals row columns {0,1,4,5} to branch 0 and {2,3,6,7} to
	// branch 1; the stride-1 gather emits position 2l+b from branch b's
	// l-th item.
	g, sources := build()
	c := &Case{Name: "sg-mismatch", Graph: g, Sources: sources}
	got, err := OracleFrames(c, 2)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	deal := conn.Schedule{Ways: 2, Stride: 2}
	merge := conn.Schedule{Ways: 2, Stride: 1}
	gains := []float64{2, 3}
	for f := 0; f < 2; f++ {
		img := frame.LCG(int64(f), 8, 2)
		want := make([]frame.Window, 0, 16)
		for y := 0; y < 2; y++ {
			row := make([]float64, 8)
			branch := make([][]float64, 2)
			for x := 0; x < 8; x++ {
				b := deal.BranchOf(int64(x))
				branch[b] = append(branch[b], img.At(x, y)*gains[b])
			}
			for b := 0; b < 2; b++ {
				for l, v := range branch[b] {
					row[int(merge.GlobalIndex(b, int64(l)))] = v
				}
			}
			for _, v := range row {
				want = append(want, frame.Scalar(v))
			}
		}
		if err := compareWindows(got[f]["result"], want); err != nil {
			t.Fatalf("frame %d: oracle disagrees with hand-derived permutation: %v", f, err)
		}
	}

	// And every backend must agree with the oracle.
	g2, sources2 := build()
	c2 := &Case{Name: "sg-mismatch", Graph: g2, Sources: sources2}
	if err := Check(c2, CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}
