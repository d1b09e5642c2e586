package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/core"
	"blockpar/internal/desc"
	"blockpar/internal/frame"
	"blockpar/internal/machine"
	"blockpar/internal/runtime"
	"blockpar/internal/transform"
)

// newTestServer compiles the named suite apps into a registry and
// serves them over httptest.
func newTestServer(t *testing.T, ids ...string) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry(machine.Embedded())
	if err := reg.AddSuite(ids...); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts
}

// doJSON issues one request and decodes the JSON object reply.
func doJSON(t *testing.T, ts *httptest.Server, method, path string, body any) (int, http.Header, map[string]json.RawMessage) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]json.RawMessage
	if len(data) > 0 {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s %s: bad JSON reply %q: %v", method, path, data, err)
		}
	}
	return resp.StatusCode, resp.Header, out
}

func openSession(t *testing.T, ts *httptest.Server, pipeline string, maxInFlight int) string {
	t.Helper()
	code, _, reply := doJSON(t, ts, "POST", "/sessions",
		map[string]any{"pipeline": pipeline, "maxInFlight": maxInFlight})
	if code != http.StatusCreated {
		t.Fatalf("open session on %q: got %d, want 201 (%s)", pipeline, code, reply["error"])
	}
	var id string
	if err := json.Unmarshal(reply["session"], &id); err != nil {
		t.Fatal(err)
	}
	return id
}

// batchCompile compiles an app exactly like the registry does, so the
// batch reference shares the streamed sessions' transformed graph.
func batchCompile(t testing.TB, app *apps.App) *core.Compiled {
	t.Helper()
	c, err := core.Compile(app.Graph, core.Config{
		Machine:        machine.Embedded(),
		Align:          transform.Trim,
		Parallelize:    true,
		BufferStriping: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// batchFrames runs the batch runtime over a fresh compile of the app
// and returns per-output, per-frame golden windows.
func batchFrames(t testing.TB, app *apps.App, frames int64) map[string][][]frame.Window {
	t.Helper()
	c := batchCompile(t, app)
	res, err := runtime.Run(c.Graph, runtime.Options{Frames: int(frames), Sources: app.Sources})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][][]frame.Window)
	for _, o := range c.Graph.Outputs() {
		out[o.Name()] = res.FrameSlices(o.Name())
	}
	return out
}

// compareFrame checks a decoded wire frame against golden windows,
// demanding exact (bit-identical) pixel values.
func compareFrame(got map[string][]WindowJSON, want map[string][]frame.Window) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d outputs, want %d", len(got), len(want))
	}
	for name, ws := range want {
		js, ok := got[name]
		if !ok {
			return fmt.Errorf("missing output %q", name)
		}
		if len(js) != len(ws) {
			return fmt.Errorf("output %q: got %d windows, want %d", name, len(js), len(ws))
		}
		for i, w := range ws {
			gw, err := js[i].ToWindow()
			if err != nil {
				return fmt.Errorf("output %q window %d: %v", name, i, err)
			}
			if !gw.Equal(w) {
				return fmt.Errorf("output %q window %d differs from batch golden", name, i)
			}
		}
	}
	return nil
}

// streamAndCompare opens a session, processes `frames` frames with
// server-generated inputs, and checks every reply against the batch
// golden for that frame.
func streamAndCompare(ts *httptest.Server, pipeline string, frames int64, want map[string][][]frame.Window) error {
	open, err := jsonPost(ts, "/sessions", map[string]any{"pipeline": pipeline})
	if err != nil {
		return err
	}
	if open.code != http.StatusCreated {
		return fmt.Errorf("open: got %d", open.code)
	}
	var id string
	if err := json.Unmarshal(open.body["session"], &id); err != nil {
		return err
	}
	defer func() {
		req, _ := http.NewRequest("DELETE", ts.URL+"/sessions/"+id, nil)
		if resp, err := ts.Client().Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	for f := int64(0); f < frames; f++ {
		reply, err := jsonPost(ts, "/sessions/"+id+"/process", nil)
		if err != nil {
			return err
		}
		if reply.code != http.StatusOK {
			return fmt.Errorf("process frame %d: got %d (%s)", f, reply.code, reply.body["error"])
		}
		var seq int64
		if err := json.Unmarshal(reply.body["frame"], &seq); err != nil {
			return err
		}
		if seq != f {
			return fmt.Errorf("process frame %d: result tagged frame %d", f, seq)
		}
		var outs map[string][]WindowJSON
		if err := json.Unmarshal(reply.body["outputs"], &outs); err != nil {
			return err
		}
		goldenFrame := make(map[string][]frame.Window, len(want))
		for name, perFrame := range want {
			if f >= int64(len(perFrame)) {
				return fmt.Errorf("batch golden has only %d frames", len(perFrame))
			}
			goldenFrame[name] = perFrame[f]
		}
		if err := compareFrame(outs, goldenFrame); err != nil {
			return fmt.Errorf("frame %d: %w", f, err)
		}
	}
	return nil
}

type jsonReply struct {
	code int
	body map[string]json.RawMessage
}

// jsonPost is the goroutine-safe (no testing.T) request helper.
func jsonPost(ts *httptest.Server, path string, body any) (jsonReply, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return jsonReply{}, err
		}
		rd = bytes.NewReader(data)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", rd)
	if err != nil {
		return jsonReply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return jsonReply{}, err
	}
	out := jsonReply{code: resp.StatusCode}
	if len(data) > 0 {
		if err := json.Unmarshal(data, &out.body); err != nil {
			return jsonReply{}, fmt.Errorf("bad JSON reply %q: %v", data, err)
		}
	}
	return out, nil
}

// TestServeConcurrentSessionsGolden is the acceptance bar: several
// simultaneous sessions across four different pipelines, every streamed
// frame byte-identical to the batch runtime's result for the same app
// and frame sequence. Run under -race this doubles as the isolation
// stress test — sessions share a compiled template but must never share
// behavior state.
func TestServeConcurrentSessionsGolden(t *testing.T) {
	ids := []string{"1", "2", "4", "5"}
	_, ts := newTestServer(t, ids...)

	const frames = 3
	want := make(map[string]map[string][][]frame.Window, len(ids))
	for _, id := range ids {
		app, err := apps.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = batchFrames(t, app, frames)
	}

	// Two sessions per pipeline: 8 concurrent streams over 4 pipelines.
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(ids))
	for _, id := range ids {
		for rep := 0; rep < 2; rep++ {
			wg.Add(1)
			go func(id string, rep int) {
				defer wg.Done()
				if err := streamAndCompare(ts, id, frames, want[id]); err != nil {
					errs <- fmt.Errorf("pipeline %s session %d: %w", id, rep, err)
				}
			}(id, rep)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeBackpressure429 checks the bounded queue: feeding past a
// session's maxInFlight answers 429 with Retry-After instead of
// buffering, and collecting a frame reopens the slot.
func TestServeBackpressure429(t *testing.T) {
	_, ts := newTestServer(t, "5")
	id := openSession(t, ts, "5", 1)

	code, _, _ := doJSON(t, ts, "POST", "/sessions/"+id+"/frames", nil)
	if code != http.StatusAccepted {
		t.Fatalf("first feed: got %d, want 202", code)
	}
	code, hdr, _ := doJSON(t, ts, "POST", "/sessions/"+id+"/frames", nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("feed past maxInFlight=1: got %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 reply is missing Retry-After")
	}
	code, _, _ = doJSON(t, ts, "POST", "/sessions/"+id+"/collect", nil)
	if code != http.StatusOK {
		t.Fatalf("collect: got %d, want 200", code)
	}
	code, _, _ = doJSON(t, ts, "POST", "/sessions/"+id+"/frames", nil)
	if code != http.StatusAccepted {
		t.Fatalf("feed after collect: got %d, want 202", code)
	}

	code, _, m := doJSON(t, ts, "GET", "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: got %d", code)
	}
	var rejected int64
	if err := json.Unmarshal(m["rejected_429"], &rejected); err != nil {
		t.Fatal(err)
	}
	if rejected < 1 {
		t.Errorf("metrics rejected_429 = %d, want >= 1", rejected)
	}
}

// TestServeShutdownDrains checks graceful shutdown: frames fed but not
// collected are still processed to completion before Shutdown returns,
// and a draining server refuses new work.
func TestServeShutdownDrains(t *testing.T) {
	srv, ts := newTestServer(t, "2")
	id := openSession(t, ts, "2", 8)
	const fed = 3
	for i := 0; i < fed; i++ {
		if code, _, reply := doJSON(t, ts, "POST", "/sessions/"+id+"/frames", nil); code != http.StatusAccepted {
			t.Fatalf("feed %d: got %d (%s)", i, code, reply["error"])
		}
	}
	sess, ok := srv.session(id)
	if !ok {
		t.Fatal("session vanished before shutdown")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := sess.rt.Completed(); got != fed {
		t.Errorf("after drain: completed %d frames, want %d", got, fed)
	}

	if code, _, _ := doJSON(t, ts, "GET", "/healthz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: got %d, want 503", code)
	}
	if code, _, _ := doJSON(t, ts, "POST", "/sessions", map[string]any{"pipeline": "2"}); code != http.StatusServiceUnavailable {
		t.Errorf("open session while draining: got %d, want 503", code)
	}
	if code, _, _ := doJSON(t, ts, "POST", "/sessions/"+id+"/frames", nil); code != http.StatusNotFound {
		t.Errorf("feed drained session: got %d, want 404", code)
	}
}

// TestServeErrors covers the client-error surface: unknown resources,
// malformed frames, and collect deadlines.
func TestServeErrors(t *testing.T) {
	_, ts := newTestServer(t, "5")

	if code, _, _ := doJSON(t, ts, "POST", "/sessions", map[string]any{"pipeline": "nope"}); code != http.StatusNotFound {
		t.Errorf("unknown pipeline: got %d, want 404", code)
	}
	if code, _, _ := doJSON(t, ts, "POST", "/sessions/s999/frames", nil); code != http.StatusNotFound {
		t.Errorf("unknown session: got %d, want 404", code)
	}

	id := openSession(t, ts, "5", 4)
	badDims := map[string]any{"inputs": map[string]WindowJSON{
		"Input": {W: 3, H: 3, Pix: make([]float64, 9)},
	}}
	if code, _, _ := doJSON(t, ts, "POST", "/sessions/"+id+"/frames", badDims); code != http.StatusBadRequest {
		t.Errorf("wrong-size frame: got %d, want 400", code)
	}
	resp, err := ts.Client().Post(ts.URL+"/sessions/"+id+"/frames", "application/json",
		bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: got %d, want 400", resp.StatusCode)
	}
	if code, _, _ := doJSON(t, ts, "POST", "/sessions/"+id+"/collect?timeout=50ms", nil); code != http.StatusGatewayTimeout {
		t.Errorf("collect with nothing fed: got %d, want 504", code)
	}
	if code, _, _ := doJSON(t, ts, "DELETE", "/sessions/"+id, nil); code != http.StatusOK {
		t.Errorf("close session: got %d, want 200", code)
	}
	if code, _, _ := doJSON(t, ts, "POST", "/sessions/"+id+"/frames", nil); code != http.StatusNotFound {
		t.Errorf("feed closed session: got %d, want 404", code)
	}
}

// TestServeAddJSONPipeline registers an application description over
// HTTP and checks a streamed frame against the batch runtime over the
// same parsed graph.
func TestServeAddJSONPipeline(t *testing.T) {
	_, ts := newTestServer(t, "5")
	descJSON := []byte(`{
		"name": "edges",
		"inputs":  [{"name": "Input", "frame": [16, 12], "chunk": [1, 1], "rate": "300"}],
		"outputs": [{"name": "Output", "chunk": [1, 1]}],
		"kernels": [{"name": "Gain", "type": "gain", "params": "2"}],
		"edges": [
			{"from": "Input.out", "to": "Gain.in"},
			{"from": "Gain.out", "to": "Output.in"}
		]
	}`)

	resp, err := ts.Client().Post(ts.URL+"/pipelines", "application/json", bytes.NewReader(descJSON))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add pipeline: got %d, want 201", resp.StatusCode)
	}

	// The inventory now lists both the suite app and the JSON one.
	listResp, err := ts.Client().Get(ts.URL + "/pipelines")
	if err != nil {
		t.Fatal(err)
	}
	var infos []pipelineInfo
	if err := json.NewDecoder(listResp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	found := map[string]bool{}
	for _, info := range infos {
		found[info.ID] = true
		if info.Nodes <= 0 || info.CyclesPerSec <= 0 {
			t.Errorf("pipeline %q reports nodes=%d cycles_per_sec=%g", info.ID, info.Nodes, info.CyclesPerSec)
		}
	}
	if !found["5"] || !found["edges"] {
		t.Fatalf("inventory %v is missing a pipeline", found)
	}

	// Streamed output must match the batch runtime over the same graph.
	g, err := desc.Parse(descJSON)
	if err != nil {
		t.Fatal(err)
	}
	want := batchFrames(t, &apps.App{Name: g.Name, Graph: g}, 2)
	if err := streamAndCompare(ts, "edges", 2, want); err != nil {
		t.Fatal(err)
	}

	// Duplicate registration is rejected.
	resp, err = ts.Client().Post(ts.URL+"/pipelines", "application/json", bytes.NewReader(descJSON))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("duplicate pipeline: got %d, want 400", resp.StatusCode)
	}
}

// TestWindowJSONTypedRoundTrip pins the HTTP wire form of typed
// windows: samples travel as exact float64 JSON numbers plus a kind
// tag, an empty tag means f64 (legacy clients stay valid), and an
// unknown tag is rejected.
func TestWindowJSONTypedRoundTrip(t *testing.T) {
	for _, k := range []frame.Kind{frame.F64, frame.U8, frame.F32} {
		w := frame.NewWindowKind(k, 3, 2)
		for y := 0; y < 2; y++ {
			for x := 0; x < 3; x++ {
				w.Set(x, y, float64(40*y+x*7))
			}
		}
		j := FromWindow(w)
		if k == frame.F64 && j.Kind != "" {
			t.Fatalf("f64 window encoded kind %q, want empty tag", j.Kind)
		}
		blob, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		var back WindowJSON
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		got, err := back.ToWindow()
		if err != nil {
			t.Fatalf("kind %v: %v", k, err)
		}
		if got.Kind != k || !got.Equal(w) {
			t.Fatalf("kind %v did not round-trip: got kind %v", k, got.Kind)
		}
	}
	if _, err := (WindowJSON{W: 1, H: 1, Kind: "i16", Pix: []float64{0}}).ToWindow(); err == nil {
		t.Fatal("unknown element kind accepted")
	}
}
