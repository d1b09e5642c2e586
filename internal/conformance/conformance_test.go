package conformance

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blockpar/internal/apps"
	"blockpar/internal/core"
	"blockpar/internal/desc"
	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/kernel"
	"blockpar/internal/machine"
	"blockpar/internal/runtime"
	"blockpar/internal/serve"
)

var (
	nFlag        = flag.Int("conformance.n", 200, "random graphs checked by TestDiffRandomGraphs")
	seedFlag     = flag.Uint64("conformance.seed", 1, "first generator seed (replay a failure with -conformance.seed=N -conformance.n=1)")
	backendsFlag = flag.String("conformance.backends", strings.Join(DefaultBackends(), ","),
		"comma-separated execution backends to diff ("+strings.Join(Backends(), ", ")+"); the nightly sweep adds cluster")
	chaosFlag = flag.Bool("conformance.chaos", false,
		"run the full chaos matrix in TestChaosConformance (-conformance.n seeds x "+
			strings.Join(ChaosModes(), ",")+"); without it a 2-seed smoke runs")
)

func flagBackends(t *testing.T) []string {
	t.Helper()
	bs := strings.Split(*backendsFlag, ",")
	if _, err := backendSet(bs); err != nil {
		t.Fatal(err)
	}
	return bs
}

// TestDiffRandomGraphs is the differential harness entry point: every
// seeded random graph runs through the selected backends — by default
// the sequential oracle vs the batch runtime, a streaming session, and
// the simulator — at every PE budget in Variants(), and all outputs
// must be byte-identical. The nightly sweep passes
// -conformance.backends=batch,session,sim,cluster to add the
// TCP-loopback cluster path.
func TestDiffRandomGraphs(t *testing.T) {
	n := *nFlag
	if testing.Short() && n > 25 {
		n = 25
	}
	backends := flagBackends(t)
	for i := 0; i < n; i++ {
		seed := *seedFlag + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c := Generate(seed)
			if err := Check(c, CheckOptions{Backends: backends}); err != nil {
				t.Fatalf("case %s [seed=%d]: %v\nreplay: go test ./internal/conformance -conformance.seed=%d -conformance.n=1", c.Name, seed, err, seed)
			}
		})
	}
}

// TestUnknownBackendRejected: a backend name the driver does not know —
// "workers", the retired worker-pool executor, included — fails the
// check instead of silently skipping a path.
func TestUnknownBackendRejected(t *testing.T) {
	for _, b := range []string{"workers", "bogus"} {
		err := Check(Generate(*seedFlag), CheckOptions{Backends: []string{b}})
		if err == nil || !strings.Contains(err.Error(), "unknown conformance backend") {
			t.Errorf("backend %q: err = %v, want unknown-backend error", b, err)
		}
	}
}

// TestDiffClusterSmoke keeps the cluster backend honest between
// nightly sweeps: a few seeds through the full distributed path on
// every PR, whatever -conformance.backends says.
func TestDiffClusterSmoke(t *testing.T) {
	const seeds = 3
	for i := 0; i < seeds; i++ {
		seed := *seedFlag + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c := Generate(seed)
			if err := Check(c, CheckOptions{Backends: []string{"cluster"}}); err != nil {
				t.Fatalf("case %s [seed=%d backend=cluster]: %v", c.Name, seed, err)
			}
		})
	}
}

// TestDiffPartitionedSmoke does the same for partitioned sessions: a
// few seeds split by the placement layer across 2- and 3-worker
// loopback fleets on every PR, so cut-edge streaming stays honest
// between nightly sweeps. Cases whose placement collapses run as fewer
// partitions — exercising that degradation is part of the point.
func TestDiffPartitionedSmoke(t *testing.T) {
	const seeds = 3
	for i := 0; i < seeds; i++ {
		seed := *seedFlag + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c := Generate(seed)
			if err := Check(c, CheckOptions{Backends: []string{"partitioned"}}); err != nil {
				t.Fatalf("case %s [seed=%d backend=partitioned]: %v", c.Name, seed, err)
			}
		})
	}
}

// TestDiffRegisteredSmoke does the same for the self-registered fleet:
// a few seeds through two frontends sharing three self-registered
// workers on every PR, so ring placement agreement and the
// registration plane stay honest between nightly sweeps.
func TestDiffRegisteredSmoke(t *testing.T) {
	const seeds = 3
	for i := 0; i < seeds; i++ {
		seed := *seedFlag + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c := Generate(seed)
			if err := Check(c, CheckOptions{Backends: []string{"registered"}}); err != nil {
				t.Fatalf("case %s [seed=%d backend=registered]: %v", c.Name, seed, err)
			}
		})
	}
}

// TestDiffPartitionedRegistered runs the partitioned check over a
// self-registered fleet: sessions split three ways across workers that
// dialed in and registered themselves, priced by admission control and
// placed off the ring, must still match the oracle bit for bit.
func TestDiffPartitionedRegistered(t *testing.T) {
	c := Generate(*seedFlag)
	want, err := OracleFrames(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Variants() {
		compiled, err := compileVariant(c, v)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRegistered(compiled, c.Sources, want, 3); err != nil {
			t.Fatalf("case %s [seed=%d variant=%s backend=registered partitions=3]: %v", c.Name, *seedFlag, v.Name, err)
		}
	}
}

// TestChaosConformance is the robustness sweep: seeded random graphs
// streamed through a two-worker cluster under seeded fault injection
// (and mid-stream worker kills), asserting CheckChaos's contract —
// byte-identical completion or a typed error, never a hang, never an
// arena leak. Default is a 2-seed smoke over kill+corrupt; the CI
// chaos-smoke job passes -conformance.chaos -conformance.n=25 and the
// nightly sweep runs the full matrix at -conformance.n=100.
//
// Chaos cases never run in parallel: the arena-leak check compares the
// global frame.Stats().Live gauge against a per-case baseline, which
// a concurrent stream would wobble.
func TestChaosConformance(t *testing.T) {
	seeds, modes := 2, []string{"kill", "corrupt"}
	if *chaosFlag {
		seeds, modes = *nFlag, ChaosModes()
	}
	if testing.Short() && seeds > 5 {
		seeds = 5
	}
	for i := 0; i < seeds; i++ {
		seed := *seedFlag + uint64(i)
		c := Generate(seed)
		for _, mode := range modes {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, mode), func(t *testing.T) {
				if err := CheckChaos(c, seed, mode); err != nil {
					t.Fatalf("case %s [seed=%d mode=%s backend=embedded]: %v\nreplay: go test ./internal/conformance -run TestChaosConformance -conformance.chaos -conformance.seed=%d -conformance.n=1",
						c.Name, seed, mode, err, seed)
				}
			})
		}
	}
}

// TestChaosSuiteApps holds the Figure 13 suite apps to the same bar:
// a mid-stream worker kill on every paper benchmark must be invisible
// — failover replays the session and every frame stays byte-identical
// to the oracle — and likewise a kill of one partition of the session
// split across a 3-worker fleet, and a registration flap on a
// self-registered fleet (the worker crashes without deregistering and
// a replacement rejoins under its name mid-stream).
func TestChaosSuiteApps(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite apps skipped in -short")
	}
	for _, id := range apps.IDs() {
		for _, mode := range []string{"kill", "partition-kill", "flap"} {
			t.Run("app-"+id+"/"+mode, func(t *testing.T) {
				app, err := apps.ByID(id)
				if err != nil {
					t.Fatal(err)
				}
				c := &Case{Name: app.Name, Graph: app.Graph, Sources: app.Sources}
				seed := 1000 + uint64(len(id))
				if err := CheckChaos(c, seed, mode); err != nil {
					t.Fatalf("app %s [seed=%d mode=%s backend=embedded]: %v", id, seed, mode, err)
				}
			})
		}
	}
}

// TestOracleMatchesAppGoldens anchors the oracle itself: on the suite
// apps with hand-computed goldens, the reference interpreter must
// reproduce the golden outputs exactly. A generator bug and a matching
// oracle bug could hide each other; this cross-check cannot.
func TestOracleMatchesAppGoldens(t *testing.T) {
	cases := []*apps.App{
		apps.ImagePipeline("image", apps.ImageCfg{W: 16, H: 12, Rate: geom.FInt(10), Bins: 8}),
		apps.Bayer("bayer", apps.BayerCfg{W: 12, H: 8, Rate: geom.FInt(10)}),
		apps.HistogramApp("hist", apps.HistCfg{W: 12, H: 10, Rate: geom.FInt(10), Bins: 16}),
		apps.ParallelBufferTest("buffer", apps.BufferCfg{W: 24, H: 8, Rate: geom.FInt(10)}),
		apps.MultiConv("multiconv", apps.MultiConvCfg{W: 20, H: 16, Rate: geom.FInt(10)}),
	}
	const frames = 2
	for _, app := range cases {
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

// TestMutationJoinSwapCaught is the harness' own smoke check: a
// deliberately broken transform must be detected. Crossing the two
// collection edges of a join both violates the §IV ordering invariant
// and scrambles the output stream, so the invariant checker and the
// byte-level comparison must each catch it.
func TestMutationJoinSwapCaught(t *testing.T) {
	v := Variant{Name: "small-rr", Machine: machine.Small(), Striping: false}
	var (
		c        *Case
		want     []map[string][]frame.Window
		compiled *core.Compiled
		join     *graph.Node
	)
	// Raise the input rate until the starved machine is forced to
	// parallelize the convolution (inserting a round-robin join).
	for _, rate := range []int64{30, 120, 480, 1920} {
		app := apps.ParallelBufferTest("mutant", apps.BufferCfg{W: 24, H: 8, Rate: geom.FInt(rate)})
		c = &Case{Name: app.Name, Graph: app.Graph, Sources: app.Sources}
		var err error
		if want, err = OracleFrames(c, 2); err != nil {
			t.Fatalf("oracle: %v", err)
		}
		if compiled, err = compileVariant(c, v); err != nil {
			t.Fatalf("compile at rate %d: %v", rate, err)
		}
		for _, n := range compiled.Graph.Nodes() {
			if n.Kind == graph.KindJoin && len(n.Inputs()) >= 2 {
				join = n
				break
			}
		}
		if join != nil {
			break
		}
	}
	if join == nil {
		t.Fatal("pipeline did not parallelize: no join kernel to mutate")
	}
	g := compiled.Graph
	e0, e1 := g.EdgeTo(join.Input("in0")), g.EdgeTo(join.Input("in1"))
	n0, p0 := e0.From.Node(), e0.From.Name
	n1, p1 := e1.From.Node(), e1.From.Name
	g.Disconnect(e0)
	g.Disconnect(e1)
	g.Connect(n0, p0, join, "in1")
	g.Connect(n1, p1, join, "in0")

	if err := CheckInvariants(compiled); err == nil {
		t.Error("CheckInvariants accepted a join with crossed collection edges")
	} else {
		t.Logf("invariant checker caught: %v", err)
	}
	if _, err := checkBatch(g, c.Sources, want); err == nil {
		t.Error("differential run accepted a join with crossed collection edges")
	} else {
		t.Logf("differential comparison caught: %v", err)
	}
}

// TestMutationBufferPlanCaught checks the §III-B invariant detects a
// buffer that no longer double-buffers: halving its declared memory is
// exactly the single-buffered allocation the paper rules out.
func TestMutationBufferPlanCaught(t *testing.T) {
	app := apps.MultiConv("mutant-buf", apps.MultiConvCfg{W: 20, H: 16, Rate: geom.FInt(10)})
	c := &Case{Name: app.Name, Graph: app.Graph, Sources: app.Sources}
	compiled, err := compileVariant(c, Variant{Name: "embedded", Machine: machine.Embedded(), Striping: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var buf *graph.Node
	for _, n := range compiled.Graph.Nodes() {
		if n.Kind == graph.KindBuffer {
			buf = n
			break
		}
	}
	if buf == nil {
		t.Fatal("compiled pipeline has no buffer to mutate")
	}
	if _, ok := kernel.BufferPlanOf(buf); !ok {
		t.Fatal("buffer carries no plan")
	}
	buf.Method("buffer").Memory /= 2
	if err := CheckInvariants(compiled); err == nil {
		t.Error("CheckInvariants accepted a buffer whose plan disagrees with its declared storage")
	} else {
		t.Logf("invariant checker caught: %v", err)
	}
}

// TestDiffHTTPServe extends the differential matrix across the HTTP
// boundary: generated pipelines are registered with a serve registry
// and streamed frame by frame over httptest, and the wire outputs must
// still match the oracle exactly (float64 JSON round-trips losslessly).
func TestDiffHTTPServe(t *testing.T) {
	const seeds, frames = 5, 2
	reg := serve.NewRegistry(machine.Embedded())
	srv := serve.NewServer(reg, serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < seeds; i++ {
		seed := *seedFlag + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := Generate(seed)
			want, err := OracleFrames(c, frames)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			id := fmt.Sprintf("conf-%d", seed)
			app := &apps.App{Name: c.Name, Graph: c.Graph.Clone(), Sources: c.Sources}
			if _, err := reg.AddApp(id, "conformance", app); err != nil {
				t.Fatalf("register: %v", err)
			}
			var open struct {
				Session string `json:"session"`
			}
			postJSON(t, ts, "/sessions", map[string]any{"pipeline": id}, http.StatusCreated, &open)
			for f := 0; f < frames; f++ {
				var rep struct {
					Frame   int64                         `json:"frame"`
					Outputs map[string][]serve.WindowJSON `json:"outputs"`
				}
				postJSON(t, ts, "/sessions/"+open.Session+"/process", nil, http.StatusOK, &rep)
				if rep.Frame != int64(f) {
					t.Fatalf("processed frame %d, want %d", rep.Frame, f)
				}
				for name, ws := range want[f] {
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

// TestCorpusDescriptors replays the checked-in corpus without -fuzz:
// bad-*.json must parse to an error (never a panic) and be rejected by
// the registry endpoint with HTTP 400; ok-*.json must parse, register,
// and compile.
func TestCorpusDescriptors(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus descriptors in testdata/: %v", err)
	}
	reg := serve.NewRegistry(machine.Embedded())
	srv := serve.NewServer(reg, serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, f := range files {
		name := filepath.Base(f)
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			_, parseErr := desc.Parse(data)
			resp, err := http.Post(ts.URL+"/pipelines", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Fatalf("POST /pipelines: %v", err)
			}
			defer resp.Body.Close()
			switch {
			case strings.HasPrefix(name, "bad-"):
				if parseErr == nil {
					t.Error("Parse accepted a corpus descriptor marked bad")
				}
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("registry answered %d for a bad descriptor, want 400", resp.StatusCode)
				}
			case strings.HasPrefix(name, "ok-"):
				if parseErr != nil {
					t.Errorf("Parse rejected a corpus descriptor marked ok: %v", parseErr)
				}
				if resp.StatusCode != http.StatusCreated {
					t.Errorf("registry answered %d for an ok descriptor, want 201", resp.StatusCode)
				}
			default:
				t.Fatalf("corpus file %q must be named ok-*.json or bad-*.json", name)
			}
		})
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any, wantCode int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+path, "application/json", &buf)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		t.Fatalf("POST %s: status %d, want %d: %s", path, resp.StatusCode, wantCode, msg.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode reply: %v", path, err)
		}
	}
}

// TestCountersOnSuiteApps holds every suite app, at every PE budget,
// to the two numbers the execution plan takes from
// the compiler: each kernel's firing count (read from the session's
// live counter block) equals the analysis' predicted iterations, and no
// input ring holds more than its plan-time capacity, even with every
// frame fed before the first is collected. The random-graph sweeps get
// the same check on every case (checkCounters in Check); this is the
// named, deterministic-input half.
func TestCountersOnSuiteApps(t *testing.T) {
	const frames = 4
	for _, id := range apps.IDs() {
		app, err := apps.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		c := &Case{Name: id, Graph: app.Graph, Sources: app.Sources}
		for _, v := range Variants() {
			compiled, err := compileVariant(c, v)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := runtime.NewSession(compiled.Graph.Clone(), runtime.SessionOptions{
				Sources: app.Sources, MaxInFlight: frames,
			})
			if err != nil {
				t.Fatal(err)
			}
			for f := 0; f < frames; f++ {
				if _, err := sess.Feed(nil); err != nil {
					t.Fatalf("app %s %s: feed %d: %v", id, v.Name, f, err)
				}
			}
			for f := 0; f < frames; f++ {
				if _, err := sess.Collect(execTimeout); err != nil {
					t.Fatalf("app %s %s: collect %d: %v", id, v.Name, f, err)
				}
			}
			// Read the counters live, before Close: nothing is paused.
			stats := sess.Stats()
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			if err := checkCounters(compiled, stats, frames); err != nil {
				t.Errorf("app %s %s: %v", id, v.Name, err)
			}
		}
	}
}
