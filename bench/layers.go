package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	goruntime "runtime"
	"sync"
	"time"

	"blockpar/internal/frame"
	"blockpar/internal/graph"
	"blockpar/internal/kernel"
	"blockpar/internal/mapping"
	"blockpar/internal/placement"
	"blockpar/internal/runtime"
	"blockpar/internal/serve"
	"blockpar/internal/sim"
	"blockpar/internal/token"
	"blockpar/internal/wire"
)

// Isolated layer timings: each function below replays the workload's
// own bodies, windows or messages through one layer's exported API
// with nothing else running, so the number is that layer's cost for
// this workload's data and nothing more. They are per-layer context,
// never gated: a layer that gets faster here only matters if the
// end-to-end rows move.

// isolatedBudget is how long each isolated timing loop runs
// (runConfig.isolate). Short enough that all of them together stay a
// small part of a traced run, long enough for hundreds of repetitions
// of the slowest one.
const isolatedBudget = 150 * time.Millisecond

// timeLoop calls fn(i) repeatedly for about budget and returns the
// mean time per call in microseconds.
func timeLoop(budget time.Duration, fn func(i int)) float64 {
	fn(0) // warm caches, scratch buffers and the arena
	n := 0
	start := time.Now()
	for time.Since(start) < budget {
		for k := 0; k < 8; k++ {
			fn(n)
			n++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
}

// goldenWindows re-materialises golden i as frame.Windows, the form the
// server's encoder and the wire codec consume.
func goldenWindows(in *inputs, i int) (map[string][]frame.Window, error) {
	out := make(map[string][]frame.Window)
	for name, js := range in.goldens[i%frameCycle] {
		ws := make([]frame.Window, len(js))
		for k, j := range js {
			w, err := j.ToWindow()
			if err != nil {
				return nil, err
			}
			ws[k] = w
		}
		out[name] = ws
	}
	return out, nil
}

// serveJSON times the serve layer's two JSON paths on this workload's
// data: request body → windows (json.Unmarshal + WindowJSON.ToWindow,
// what readFrameBody does) and result windows → reply bytes
// (FromWindow + encoding/json, what collectAndReply does).
func serveJSON(in *inputs, budget time.Duration) (decodeUS, encodeUS float64, err error) {
	decodeUS = timeLoop(budget, func(i int) {
		body := in.bodies[i%frameCycle]
		if len(body) == 0 {
			return // the server-generated path: nothing to decode
		}
		var req feedBody
		if err = json.Unmarshal(body, &req); err != nil {
			return
		}
		for _, jw := range req.Inputs {
			if _, err = jw.ToWindow(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	outs := make([]map[string][]frame.Window, frameCycle)
	for i := range outs {
		if outs[i], err = goldenWindows(in, i); err != nil {
			return 0, 0, err
		}
	}
	encodeUS = timeLoop(budget, func(i int) {
		enc := make(map[string][]serve.WindowJSON, len(outs[0]))
		for name, ws := range outs[i%frameCycle] {
			js := make([]serve.WindowJSON, len(ws))
			for k, w := range ws {
				js[k] = serve.FromWindow(w)
			}
			enc[name] = js
		}
		json.NewEncoder(io.Discard).Encode(map[string]any{"frame": i, "latency_ms": 1.5, "outputs": enc})
	})
	return decodeUS, encodeUS, nil
}

// memConn is a net.Conn over memory: writes append to out, reads drain
// in. It lets wire.Conn's Write and Read be timed one at a time, which
// a synchronous net.Pipe (the writer blocks on the reader) cannot.
type memConn struct {
	net.Conn // nil; only Read, Write and Close are ever called
	in       *bytes.Reader
	out      bytes.Buffer
}

func (c *memConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *memConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *memConn) Close() error                { return nil }

type wireCosts struct {
	encodeFeedUS, decodeFeedUS     float64
	encodeResultUS, decodeResultUS float64
	feedBytes, resultBytes         float64
}

// wireCodec times the wire layer on the messages this workload's
// frames become: a Feed carrying the input window (none when the
// server generates it) and a Result carrying the golden outputs.
func wireCodec(wl workload, in *inputs, budget time.Duration) (wireCosts, error) {
	var c wireCosts
	feeds := make([]wire.Msg, frameCycle)
	results := make([]wire.Msg, frameCycle)
	for i := range feeds {
		f := &wire.Feed{SID: 1, Seq: int64(i)}
		if wl.explicit {
			f.Inputs = []wire.NamedWindow{{Name: inputNode, Win: in.frames[i]}}
		}
		feeds[i] = f
		outs, err := goldenWindows(in, i)
		if err != nil {
			return c, err
		}
		r := &wire.Result{SID: 1, Seq: int64(i)}
		for name, ws := range outs {
			r.Outputs = append(r.Outputs, wire.NamedWindows{Name: name, Wins: ws})
		}
		results[i] = r
	}
	encode := func(msgs []wire.Msg) (us, size float64, stream []byte, err error) {
		mc := &memConn{}
		conn := wire.NewConn(mc)
		us = timeLoop(budget, func(i int) {
			mc.out.Reset()
			if werr := conn.Write(msgs[i%frameCycle]); werr != nil {
				err = werr
			}
		})
		mc.out.Reset()
		for _, m := range msgs {
			if werr := conn.Write(m); werr != nil {
				err = werr
			}
		}
		stream = append([]byte(nil), mc.out.Bytes()...)
		return us, float64(len(stream)) / frameCycle, stream, err
	}
	decode := func(stream []byte) (float64, error) {
		var derr error
		mc := &memConn{in: bytes.NewReader(stream)}
		conn := wire.NewConn(mc)
		us := timeLoop(budget, func(int) {
			if mc.in.Len() == 0 {
				mc.in.Reset(stream)
			}
			m, err := conn.Read()
			if err != nil {
				derr = err
				return
			}
			// Decoded windows are arena storage the reader owns.
			switch m := m.(type) {
			case *wire.Feed:
				for _, nw := range m.Inputs {
					nw.Win.Release()
				}
			case *wire.Result:
				for _, o := range m.Outputs {
					for _, w := range o.Wins {
						w.Release()
					}
				}
			}
		})
		return us, derr
	}
	var stream []byte
	var err error
	if c.encodeFeedUS, c.feedBytes, stream, err = encode(feeds); err != nil {
		return c, err
	}
	if c.decodeFeedUS, err = decode(stream); err != nil {
		return c, err
	}
	if c.encodeResultUS, c.resultBytes, stream, err = encode(results); err != nil {
		return c, err
	}
	c.decodeResultUS, err = decode(stream)
	return c, err
}

type runtimeCosts struct {
	directFPS, directUS, directAllocs float64
	feedUS, collectWaitUS             float64
}

// runtimeDirect streams the same frames through Pipeline.NewSession
// with no HTTP, JSON or wire around it: first one frame at a time
// (window 1: the pure per-frame cost), then with the server's default
// window of 8 in flight (what the serving path could reach at best).
func runtimeDirect(wl workload, p *serve.Pipeline, in *inputs, budget time.Duration) (runtimeCosts, error) {
	var c runtimeCosts
	sess, err := p.NewSession(runtime.SessionOptions{MaxInFlight: 8})
	if err != nil {
		return c, err
	}
	defer sess.Close()
	feedArg := func(i int64) map[string]frame.Window {
		if !wl.explicit {
			return nil
		}
		return map[string]frame.Window{inputNode: in.frames[i%frameCycle]}
	}
	release := func(res *runtime.StreamResult) {
		for _, ws := range res.Outputs {
			for _, w := range ws {
				w.Release()
			}
		}
	}
	var seq int64
	var rerr error
	c.directUS = timeLoop(2*budget, func(int) {
		if _, err := sess.Feed(feedArg(seq)); err != nil {
			rerr = err
			return
		}
		seq++
		res, err := sess.Collect(collectTimeout)
		if err != nil {
			rerr = err
			return
		}
		release(res)
	})
	if rerr != nil {
		return c, rerr
	}

	frames := max(40, int(400*budget/isolatedBudget))
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	start := time.Now()
	var feedNS, waitNS int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < frames; i++ {
			t := time.Now()
			if _, err := sess.Feed(feedArg(seq + int64(i))); err != nil {
				rerr = err
				return
			}
			feedNS += time.Since(t).Nanoseconds()
		}
	}()
	for i := 0; i < frames; i++ {
		t := time.Now()
		res, err := sess.Collect(collectTimeout)
		if err != nil {
			wg.Wait()
			return c, err
		}
		waitNS += time.Since(t).Nanoseconds()
		release(res)
	}
	wg.Wait()
	elapsed := time.Since(start)
	goruntime.ReadMemStats(&ms1)
	if rerr != nil {
		return c, rerr
	}
	c.directFPS = float64(frames) / elapsed.Seconds()
	c.directAllocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(frames)
	c.feedUS = float64(feedNS) / 1e3 / float64(frames)
	c.collectWaitUS = float64(waitNS) / 1e3 / float64(frames)
	return c, nil
}

// stubCtx drives a kernel's Invoke with fixed inputs and recycles
// whatever it emits, as internal/kernel's allocfree_test does: what is
// left is the kernel's own loop.
type stubCtx struct {
	in    map[string]frame.Window
	batch map[string]graph.Batch
}

func (c *stubCtx) Input(name string) frame.Window { return c.in[name] }
func (c *stubCtx) Token(string) token.Token       { return token.Token{} }
func (c *stubCtx) Emit(_ string, w frame.Window)  { w.Release() }
func (c *stubCtx) EmitToken(string, token.Token)  {}
func (c *stubCtx) Batch(input string) graph.Batch { return c.batch[input] }
func (c *stubCtx) EmitBatch(_ string, w frame.Window, _ graph.Batch) {
	w.Release()
}

// ramp is a deterministic arena-free input span.
func ramp(k frame.Kind, w, h int) frame.Window {
	win := frame.NewWindowKind(k, w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			win.Set(x, y, float64((x*7+y*13)%256))
		}
	}
	return win
}

type kernelCosts struct{ convNS, medianNS, histogramNS, bayerU8NS float64 }

// kernelLoops times the hot kernels of the three benchmark apps on one
// row span each, in nanoseconds per output sample: the 5×5 convolution
// and 3×3 median of app 5 (app 4 chains the same convolution loop at
// 3, 5 and 7), app 5's histogram count, and app 1u8's Bayer demosaic.
func kernelLoops(budget time.Duration) (kernelCosts, error) {
	var c kernelCosts
	var kerr error
	fire := func(node *graph.Node, method string, ctx *stubCtx, samples int) float64 {
		inv := node.Behavior.(graph.Invoker)
		us := timeLoop(budget/3, func(int) {
			if err := inv.Invoke(method, ctx); err != nil {
				kerr = err
			}
		})
		return us * 1e3 / float64(samples)
	}
	const row = 44 // app 5's 48-wide frame yields 44 5×5 windows per row

	conv := kernel.Convolution("conv", 5)
	if err := conv.Behavior.(graph.Invoker).Invoke("loadCoeff",
		&stubCtx{in: map[string]frame.Window{"coeff": ramp(frame.F64, 5, 5)}}); err != nil {
		return c, err
	}
	c.convNS = fire(conv, "runConvolve", &stubCtx{
		in:    map[string]frame.Window{"in": ramp(frame.F64, row+4, 5)},
		batch: map[string]graph.Batch{"in": {N: row, Sx: 1, Bw: 5}},
	}, row)

	c.medianNS = fire(kernel.Median("median", 3), "runMedian", &stubCtx{
		in:    map[string]frame.Window{"in": ramp(frame.F64, row+2, 3)},
		batch: map[string]graph.Batch{"in": {N: row, Sx: 1, Bw: 3}},
	}, row)

	hist := kernel.Histogram("hist", 32)
	edges := frame.NewWindow(32, 1)
	for i := range edges.Pix {
		edges.Pix[i] = float64(i * 8)
	}
	if err := hist.Behavior.(graph.Invoker).Invoke("configureBins",
		&stubCtx{in: map[string]frame.Window{"bins": edges}}); err != nil {
		return c, err
	}
	c.histogramNS = fire(hist, "count", &stubCtx{
		in: map[string]frame.Window{"in": frame.Scalar(100)},
	}, 1)

	const quads = 31 // app 1u8's 64-wide frame yields 31 4×4 windows per row
	c.bayerU8NS = fire(kernel.BayerDemosaic("bayer"), "demosaic", &stubCtx{
		in:    map[string]frame.Window{"in": ramp(frame.U8, (quads-1)*2+4, 4)},
		batch: map[string]graph.Batch{"in": {N: quads, Sx: 2, Bw: 4}},
	}, quads*4) // each firing emits a 2×2 quad
	return c, kerr
}

type modelCosts struct {
	planMS           float64
	cutBytesPerFrame float64
	cyclesPerFrame   float64
	meanUtilization  float64
	realtimeMet      float64
}

// paperModel computes what the paper's own machinery predicts for the
// pipeline, to print beside the measured rows: the analysis' cycles
// per frame, the timing simulator's mean PE utilisation and whether
// the mapped application meets its input rate, and the placement
// layer's 3-way cut. All but plan_ms are exact and must repeat
// bit-for-bit from run to run.
func paperModel(p *serve.Pipeline) (modelCosts, error) {
	var c modelCosts
	g, r, m := p.Graph(), p.Analysis(), p.Machine()
	for _, n := range g.Nodes() {
		c.cyclesPerFrame += float64(r.NodeInfoOf(n).CyclesPerFrame)
	}
	start := time.Now()
	plan, err := placement.PlanGraph(g, r, m, placement.EvenFleet(g, r, m, 3), 1)
	if err != nil {
		return c, fmt.Errorf("placement: %w", err)
	}
	c.planMS = msSince(start)
	for _, cut := range plan.Cuts {
		c.cutBytesPerFrame += float64(cut.WordsPerFrame * 8)
	}
	assign, err := mapping.Greedy(g, r, m)
	if err != nil {
		return c, fmt.Errorf("mapping: %w", err)
	}
	res, err := sim.Simulate(g, assign, sim.Options{Machine: m, Frames: 2})
	if err != nil {
		return c, fmt.Errorf("simulate: %w", err)
	}
	c.meanUtilization = res.MeanUtilization()
	if res.RealTimeMet() {
		c.realtimeMet = 1
	}
	return c, nil
}
