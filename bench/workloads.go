package main

import (
	"encoding/json"
	"fmt"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/frame"
	"blockpar/internal/graph"
	"blockpar/internal/runtime"
	"blockpar/internal/serve"
)

// workload is one row of the benchmark: a pipeline, where it runs, and
// how its inputs reach it. The four rows are chosen so each stresses a
// different layer (see README.md): a change to one layer should move
// its own row and leave the others alone.
type workload struct {
	name string
	app  string
	// workers is the cluster fleet size; 0 runs sessions in-process.
	workers int
	// partitions is DispatcherOptions.Partitions (0 = whole sessions).
	partitions int
	// explicit sends each frame in the request body; otherwise the body
	// is empty and the server generates the frame from its sources.
	explicit bool
	// rateFPS is the paced phase's open-loop rate: half the frames_per_s
	// median of three runs on the 2-core reference box (186, 302, 564
	// and 428.5), rounded down to a multiple of 10, then frozen.
	// Recalibrating it is a change to the benchmark, not something a
	// gain-claiming change may do.
	rateFPS int
}

var workloads = []workload{
	{name: "local_compute", app: "5", rateFPS: 90},
	{name: "local_json", app: "1u8", explicit: true, rateFPS: 150},
	{name: "cluster_whole", app: "4", workers: 1, explicit: true, rateFPS: 280},
	{name: "cluster_part3", app: "4", workers: 3, partitions: 3, explicit: true, rateFPS: 210},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// frameCycle is how many distinct seeded frames a run cycles through:
// enough that no layer can memoise a frame, few enough that goldens
// for all of them are computed in set-up.
const frameCycle = 16

// sampleEvery is the fixed share of replies whose outputs are decoded
// and compared with the golden; every reply's status and sequence
// number are checked regardless.
const sampleEvery = 8

// splitmix64 is the seeded sample source: tiny, stable across Go
// releases (math/rand's stream is not part of its contract), and good
// enough for image noise.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// inputs is everything a run derives from its seed: the frame cycle,
// the request bodies that carry it, and the golden replies.
type inputs struct {
	frames []frame.Window
	// bodies[i] is the POST body for frames[i]: empty for workloads
	// whose frames are generated server-side.
	bodies [][]byte
	// goldens[i] is the reply expected for frames[i], in the server's
	// own wire form so the comparison is exact.
	goldens []map[string][]serve.WindowJSON
	// encodeUS is the mean time to JSON-encode one frame as a body
	// (timed for every workload, sent only by the explicit ones).
	encodeUS float64
}

// noiseFrames builds the seeded frame cycle for an application input
// node: byte-valued noise (0..255, exact in every element kind) of the
// node's own size and kind.
func noiseFrames(in *graph.Node, seed uint64) []frame.Window {
	kind := in.Output("out").Elem
	rng := splitmix64(seed)
	frames := make([]frame.Window, frameCycle)
	for i := range frames {
		w := frame.NewWindowKind(kind, in.FrameSize.W, in.FrameSize.H)
		for y := 0; y < w.H; y++ {
			for x := 0; x < w.W; x++ {
				w.Set(x, y, float64(rng.next()>>56))
			}
		}
		frames[i] = w
	}
	return frames
}

// cycleSource serves the seeded frames as a frame.Generator, so the
// server-side generation path (an empty request body) still runs on
// seeded inputs: frame seq of a session is frames[seq mod 16].
func cycleSource(frames []frame.Window) frame.Generator {
	return func(seq int64, w, h int) frame.Window {
		return frames[seq%int64(len(frames))].Clone()
	}
}

// inputNode names the one streamed input every benchmark pipeline has;
// coefficient and bin inputs keep their suite sources.
const inputNode = "Input"

// suiteApp returns the suite application for the workload. For
// server-generated workloads its Input source is replaced by the seeded
// cycle, which is the only way a seed can reach a frame the client
// never sends.
func suiteApp(wl workload, seed uint64) (*apps.App, error) {
	app, err := apps.ByID(wl.app)
	if err != nil {
		return nil, err
	}
	if !wl.explicit {
		app.Sources[inputNode] = cycleSource(noiseFrames(app.Graph.Node(inputNode), seed))
	}
	return app, nil
}

// feedBody is the request shape of POST /sessions/{id}/frames.
type feedBody struct {
	Inputs map[string]serve.WindowJSON `json:"inputs"`
}

// prepareInputs derives the run's inputs and goldens from the compiled
// pipeline. The goldens come from the batch runtime over the same
// compiled graph and the same sources the live session uses, so a
// streamed reply that differs from them is a real divergence between
// the two execution paths.
func prepareInputs(wl workload, p *serve.Pipeline, seed uint64) (*inputs, error) {
	in := &inputs{
		frames: noiseFrames(p.Graph().Node(inputNode), seed),
		bodies: make([][]byte, frameCycle),
	}
	start := time.Now()
	for i, f := range in.frames {
		body, err := json.Marshal(feedBody{Inputs: map[string]serve.WindowJSON{inputNode: serve.FromWindow(f)}})
		if err != nil {
			return nil, err
		}
		if wl.explicit {
			in.bodies[i] = body
		}
	}
	in.encodeUS = float64(time.Since(start).Nanoseconds()) / 1e3 / frameCycle
	sources := p.Sources()
	if wl.explicit {
		// The registry holds the suite's own generator; the batch run
		// must see the frames the client will send instead.
		sources = make(map[string]frame.Generator, len(p.Sources()))
		for k, v := range p.Sources() {
			sources[k] = v
		}
		sources[inputNode] = cycleSource(in.frames)
	}

	res, err := runtime.Run(p.Graph().Clone(), runtime.Options{
		Frames:  frameCycle,
		Sources: sources,
		Timeout: 60 * time.Second,
	})
	if err != nil {
		return nil, fmt.Errorf("golden batch run: %w", err)
	}
	in.goldens = make([]map[string][]serve.WindowJSON, frameCycle)
	for i := range in.goldens {
		in.goldens[i] = make(map[string][]serve.WindowJSON)
	}
	for _, out := range p.Graph().Outputs() {
		slices := res.FrameSlices(out.Name())
		if len(slices) != frameCycle {
			return nil, fmt.Errorf("golden batch run: output %s produced %d frames, want %d", out.Name(), len(slices), frameCycle)
		}
		for i, wins := range slices {
			js := make([]serve.WindowJSON, len(wins))
			for j, w := range wins {
				js[j] = serve.FromWindow(w)
			}
			in.goldens[i][out.Name()] = js
		}
	}
	return in, nil
}

// sameOutputs compares a decoded reply with a golden, exactly.
func sameOutputs(got, want map[string][]serve.WindowJSON) bool {
	if len(got) != len(want) {
		return false
	}
	for name, ws := range want {
		gs, ok := got[name]
		if !ok || len(gs) != len(ws) {
			return false
		}
		for i := range ws {
			g, w := gs[i], ws[i]
			if g.W != w.W || g.H != w.H || g.Kind != w.Kind || len(g.Pix) != len(w.Pix) {
				return false
			}
			for k := range w.Pix {
				if g.Pix[k] != w.Pix[k] {
					return false
				}
			}
		}
	}
	return true
}
