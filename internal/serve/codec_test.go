package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/frame"
	"blockpar/internal/machine"
	"blockpar/internal/runtime"
)

// plainWindow is WindowJSON without its methods: encoding/json treats
// it as the plain tagged struct WindowJSON was before the edge codec,
// which makes it the reference the codec is pinned to.
type plainWindow WindowJSON

// refReply is the reply exactly as collectAndReply built it before the
// codec: FromWindow per window, a map[string]any, json.NewEncoder.
func refReply(t testing.TB, seq int64, latencyMS float64, outs map[string][]frame.Window) []byte {
	t.Helper()
	enc := make(map[string][]plainWindow, len(outs))
	for name, ws := range outs {
		js := make([]plainWindow, len(ws))
		for i, w := range ws {
			js[i] = plainWindow(FromWindow(w))
		}
		enc[name] = js
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(map[string]any{
		"frame":      seq,
		"latency_ms": latencyMS,
		"outputs":    enc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hardSamples are the values whose formatting differs between the 'f'
// and 'e' rules, the integer shortcut and the shortest-float search.
var hardSamples = []float64{
	0, math.Copysign(0, -1), 1, -1, 255, 256, 0.5, -0.25,
	5e-324, 1e-7, 9.999999e-7, 1e-6, 123456789.125, 1e15, 1e15 - 1, -1e15, 1e20, 1e21, 1.5e300,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	float64(float32(0.1)), float64(float32(1e-7)), float64(math.MaxFloat32), float64(float32(16777217)),
	math.MaxInt64, math.MinInt64, 4503599627370497.5, 0.1, 1.0 / 3,
}

// hardWindow spreads hardSamples, narrowed to k, over a w×h window.
func hardWindow(k frame.Kind, w, h, shift int) frame.Window {
	win := frame.NewWindowKind(k, w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := hardSamples[(y*w+x+shift)%len(hardSamples)]
			if k == frame.F32 && math.Abs(v) > math.MaxFloat32 {
				v = math.Copysign(math.MaxFloat32, v) // stay finite
			}
			win.Set(x, y, v)
		}
	}
	return win
}

func TestReplyBytesMatchEncodingJSON(t *testing.T) {
	kinds := []frame.Kind{frame.F64, frame.U8, frame.F32}
	var dense, views, empty []frame.Window
	for i, k := range kinds {
		dense = append(dense, hardWindow(k, 7, 5, i), hardWindow(k, 1, 1, 3*i))
		parent := hardWindow(k, 9, 8, 2*i)
		views = append(views, parent.View(2, 1, 5, 6), parent.View(0, 0, 9, 8), parent.View(8, 7, 1, 1))
		empty = append(empty, frame.NewWindowKind(k, 0, 0), frame.NewWindowKind(k, 3, 0), frame.NewWindowKind(k, 0, 2))
	}
	u8 := frame.NewWindowKind(frame.U8, 16, 16)
	for v := 0; v < 256; v++ {
		u8.Set(v%16, v/16, float64(v))
	}
	// Runs of equal-shape windows, as app 1's quads arrive, broken by a
	// kind change at the same W×H, a shape change of one side, and a new
	// output whose first window continues the last one's shape.
	quads := hardWindow(frame.U8, 8, 2, 1)
	var runA, runB []frame.Window
	for j := 0; j < 4; j++ {
		runA = append(runA, quads.View(2*j, 0, 2, 2))
	}
	runA = append(runA, hardWindow(frame.U8, 2, 2, 9), hardWindow(frame.F32, 2, 2, 0), hardWindow(frame.F32, 2, 2, 4),
		hardWindow(frame.F32, 2, 3, 1), hardWindow(frame.F32, 3, 3, 2), hardWindow(frame.F32, 3, 3, 5),
		hardWindow(frame.F64, 3, 3, 6), hardWindow(frame.F64, 2, 2, 7), hardWindow(frame.U8, 2, 2, 8))
	runB = append(runB, hardWindow(frame.U8, 2, 2, 10), quads.View(0, 0, 2, 2), hardWindow(frame.F64, 2, 2, 11),
		frame.NewWindowKind(frame.F64, 0, 2), frame.NewWindowKind(frame.F64, 0, 2), hardWindow(frame.F64, 2, 2, 12))
	cases := []struct {
		name    string
		seq     int64
		latency float64
		outs    map[string][]frame.Window
	}{
		{"no outputs", 0, 0, map[string][]frame.Window{}},
		{"empty output lists", 1, 1.5, map[string][]frame.Window{"a": {}, "b": nil}},
		{"dense, all kinds", 7, 0.123456, map[string][]frame.Window{"Output": dense}},
		{"strided views", math.MaxInt64, 1e-7, map[string][]frame.Window{"v": views, "d": dense[:2]}},
		{"0x0 and zero-area windows", -3, 1e21, map[string][]frame.Window{"z": empty}},
		{"every byte value", 12, 3.25, map[string][]frame.Window{"u8": {u8, u8.View(3, 3, 9, 2)}}},
		{"runs of equal shapes", 5, 0.75, map[string][]frame.Window{"A": runA, "B": runB, "C": runA[:2]}},
		{"names needing escapes", 2, 2.5, map[string][]frame.Window{
			"a<b>&c":              {dense[0]},
			`quo"te\slash`:        {dense[1]},
			"sp ace\ttab\n":       {dense[2]},
			"ctl\x01\b\f\x7f":     nil,
			"héllo—世界":            {dense[3]},
			"line\u2028sep\u2029": {dense[4]},
			"bad\xffutf8\xc0":     {dense[5]},
			"":                    {},
			"Z":                   {}, "a": {}, "B": {},
		}},
	}
	for _, c := range cases {
		got, err := appendReply(nil, c.seq, c.latency, c.outs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := refReply(t, c.seq, c.latency, c.outs); !bytes.Equal(got, want) {
			t.Errorf("%s: reply differs from encoding/json\n got %s\nwant %s", c.name, clip(got), clip(want))
		}
	}

	// WindowJSON reaches the same routines through MarshalJSON, and the
	// other two replies are pinned to their old map encodings.
	for _, w := range append(append(dense, views...), empty...) {
		j := FromWindow(w)
		got, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(plainWindow(j)); !bytes.Equal(got, want) {
			t.Errorf("WindowJSON %v marshals to %s, want %s", w, clip(got), clip(want))
		}
	}
	var want bytes.Buffer
	json.NewEncoder(&want).Encode(map[string]any{"frame": int64(41), "inFlight": int64(3)})
	if got := appendFeedAck(nil, 41, 3); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("feed ack %q, want %q", got, want.Bytes())
	}
	for _, msg := range []string{"", "plain", `input "x": <&> ` + "\x00 \xff"} {
		want.Reset()
		json.NewEncoder(&want).Encode(map[string]string{"error": msg})
		if got := appendError(nil, msg); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("error reply %q, want %q", got, want.Bytes())
		}
	}
}

func clip(b []byte) string {
	if len(b) > 600 {
		return string(b[:600]) + "…"
	}
	return string(b)
}

// TestReplyNonFinite checks the encoder refuses what JSON cannot carry
// and says where it was.
func TestReplyNonFinite(t *testing.T) {
	for _, k := range []frame.Kind{frame.F64, frame.F32} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			parent := frame.NewWindowKind(k, 6, 4)
			parent.Set(4, 2, v)
			w := parent.View(2, 1, 3, 3) // the bad sample is (2,1) of the view: index 5
			_, err := appendReply(nil, 0, 0, map[string][]frame.Window{"Out": {hardWindow(k, 2, 2, 0), w}})
			if err == nil {
				t.Fatalf("%v %v: encoded a non-finite sample", k, v)
			}
			for _, part := range []string{`"Out"`, "window 1", "sample 5"} {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("%v %v: error %q does not name %s", k, v, err, part)
				}
			}
		}
	}
	// Mid-run: windows 0-2 set the header that window 3 copies; its bad
	// sample is index 2, and the error must still say so.
	for _, k := range []frame.Kind{frame.F64, frame.F32} {
		run := []frame.Window{hardWindow(k, 2, 2, 0), hardWindow(k, 2, 2, 1), hardWindow(k, 2, 2, 2), hardWindow(k, 2, 2, 3), hardWindow(k, 2, 2, 4)}
		run[3].Set(0, 1, math.Inf(-1))
		_, err := appendReply(nil, 0, 0, map[string][]frame.Window{"A": {hardWindow(k, 2, 2, 5)}, "Run": run})
		if err == nil {
			t.Fatalf("%v: encoded a non-finite sample mid-run", k)
		}
		for _, part := range []string{`"Run"`, "window 3", "sample 2"} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("%v mid-run: error %q does not name %s", k, err, part)
			}
		}
	}
	if _, err := json.Marshal(WindowJSON{W: 1, H: 1, Pix: []float64{math.NaN()}}); err == nil {
		t.Error("WindowJSON marshalled NaN")
	}
}

// ---- parser against an encoding/json reference ----

// refBodyWindow is the request window as encoding/json sees it. Pix
// holds pointers so that a null sample is told apart from a number: it
// reads as 0 (with []float64, encoding/json leaves the element at
// whatever a duplicate "pix" key stored there before — not a rule worth
// keeping).
type refBodyWindow struct {
	W    int        `json:"w"`
	H    int        `json:"h"`
	Kind string     `json:"kind,omitempty"`
	Pix  []*float64 `json:"pix"`
}

// refParseBody is readFrameBody as it was: encoding/json into a map of
// tagged structs, then the ToWindow checks.
func refParseBody(body []byte) (map[string]frame.Window, error) {
	var req struct {
		Inputs map[string]refBodyWindow `json:"inputs"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	if len(req.Inputs) == 0 {
		return nil, nil
	}
	out := make(map[string]frame.Window, len(req.Inputs))
	for name, j := range req.Inputs {
		k, err := frame.ParseKind(j.Kind)
		if err != nil {
			return nil, err
		}
		if j.W < 0 || j.H < 0 || j.H > 0 && j.W > math.MaxInt/j.H || len(j.Pix) != j.W*j.H {
			return nil, fmt.Errorf("window %dx%d carries %d samples", j.W, j.H, len(j.Pix))
		}
		w := frame.NewWindowKind(k, j.W, j.H)
		for i, v := range j.Pix {
			if v != nil {
				w.Set(i%j.W, i/j.W, *v)
			}
		}
		out[name] = w
	}
	return out, nil
}

// diffBody runs both parsers on body and reports a disagreement.
func diffBody(body []byte) error {
	got, gotErr := parseFrameBody(body)
	want, wantErr := refParseBody(body)
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("codec error %v, encoding/json reference error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if len(got) != len(want) || (got == nil) != (want == nil) {
		return fmt.Errorf("codec parsed %d inputs (nil %v), reference %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("codec has no input %q", name)
		}
		// A zero-area window has no samples to compare, and its other
		// dimension may be too large to loop over.
		if g.W != w.W || g.H != w.H || g.Kind != w.Kind || w.W*w.H > 0 && !g.Equal(w) {
			return fmt.Errorf("input %q: codec %v, reference %v, or their samples, differ", name, g, w)
		}
	}
	return nil
}

// benchBody is the body bpbench sends: json.Marshal of the request
// shape over FromWindow.
func benchBody(t testing.TB, name string, w frame.Window) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{"inputs": map[string]WindowJSON{name: FromWindow(w)}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// bodyCorpus is the seed corpus of FuzzFrameBody and the fixed table of
// TestFrameBodyMatchesEncodingJSON.
func bodyCorpus(t testing.TB) [][]byte {
	corpus := [][]byte{
		benchBody(t, "Input", hardWindow(frame.U8, 4, 3, 0)),
		benchBody(t, "Input", hardWindow(frame.F32, 3, 2, 1)),
		benchBody(t, "Input", hardWindow(frame.F64, 5, 2, 2)),
		benchBody(t, "Input", frame.NewWindow(0, 0)),
	}
	for _, s := range []string{
		// TestServeErrors
		`{not json`,
		`{"inputs":{"Input":{"w":3,"h":3,"pix":[0,0,0,0,0,0,0,0,0]}}}`,
		// nothing to feed
		``, ` `, `null`, `{}`, `{"inputs":null}`, `{"inputs":{}}`, `{"other":[1,{"a":"b"}],"inputs":{}}`,
		// wrong top-level and field types
		`[]`, `1`, `"inputs"`, `true`, `{"inputs":[]}`, `{"inputs":3}`, `{"inputs":{"a":[]}}`, `{"inputs":{"a":7}}`,
		`{"inputs":{"a":null}}`, `{"inputs":{"a":{}}}`, `{"inputs":{"a":{"w":null,"h":null,"kind":null,"pix":null}}}`,
		`{"inputs":{"a":{"w":"1","h":1,"pix":[1]}}}`, `{"inputs":{"a":{"w":1.0,"h":1,"pix":[1]}}}`,
		`{"inputs":{"a":{"w":1e0,"h":1,"pix":[1]}}}`, `{"inputs":{"a":{"w":-0,"h":-0,"pix":[]}}}`,
		`{"inputs":{"a":{"w":-1,"h":-1,"pix":[1]}}}`, `{"inputs":{"a":{"w":99999999999999999999,"h":1,"pix":[]}}}`,
		`{"inputs":{"a":{"w":4294967296,"h":4294967296,"pix":[]}}}`, `{"inputs":{"a":{"w":0,"h":1000000000000000000,"pix":[]}}}`,
		`{"inputs":{"a":{"w":100000,"h":100000,"pix":[1,2]}}}`,
		`{"inputs":{"a":{"w":1,"h":1,"kind":5,"pix":[1]}}}`, `{"inputs":{"a":{"w":1,"h":1,"pix":{}}}}`,
		`{"inputs":{"a":{"w":1,"h":1,"pix":"1"}}}`, `{"inputs":{"a":{"w":1,"h":1,"pix":[true]}}}`,
		`{"inputs":{"a":{"w":1,"h":1,"pix":["1"]}}}`, `{"inputs":{"a":{"w":1,"h":1,"pix":[[1]]}}}`,
		// samples
		`{"inputs":{"a":{"w":2,"h":2,"pix":[null,1,null,-0]}}}`, `{"inputs":{"a":{"w":2,"h":1,"kind":"u8","pix":[null,7]}}}`,
		`{"inputs":{"a":{"w":4,"h":2,"kind":"u8","pix":[0,255,256,1000,-1,254.5,0.49,1e2]}}}`,
		`{"inputs":{"a":{"w":3,"h":1,"kind":"u8","pix":[01,2,3]}}}`, `{"inputs":{"a":{"w":3,"h":1,"kind":"u8","pix":[1 , 22	,333 ]}}}`,
		`{"inputs":{"a":{"w":3,"h":1,"kind":"f32","pix":[0.1,1e300,-1e-300]}}}`, `{"inputs":{"a":{"w":1,"h":1,"pix":[1e999]}}}`,
		`{"inputs":{"a":{"w":2,"h":1,"pix":[1e-999,123456789012345678901234567890]}}}`,
		`{"inputs":{"a":{"w":6,"h":1,"pix":[-,1]}}}`, `{"inputs":{"a":{"w":1,"h":1,"pix":[1.]}}}`, `{"inputs":{"a":{"w":1,"h":1,"pix":[.5]}}}`,
		`{"inputs":{"a":{"w":1,"h":1,"pix":[+1]}}}`, `{"inputs":{"a":{"w":1,"h":1,"pix":[1e]}}}`, `{"inputs":{"a":{"w":1,"h":1,"pix":[0x10]}}}`,
		`{"inputs":{"a":{"w":1,"h":1,"pix":[NaN]}}}`, `{"inputs":{"a":{"w":1,"h":1,"pix":[1,]}}}`, `{"inputs":{"a":{"w":1,"h":1,"pix":[,1]}}}`,
		`{"inputs":{"a":{"w":2,"h":1,"pix":[1 2]}}}`, `{"inputs":{"a":{"w":1,"h":1,"pix":[1E+2]}}}`, `{"inputs":{"a":{"w":1,"h":1,"pix":[-0.0e-0]}}}`,
		// wrong sample counts
		`{"inputs":{"a":{"w":2,"h":2,"pix":[1,2,3]}}}`, `{"inputs":{"a":{"w":2,"h":2,"pix":[1,2,3,4,5]}}}`,
		`{"inputs":{"a":{"w":2,"h":2}}}`, `{"inputs":{"a":{"pix":[1]}}}`, `{"inputs":{"a":{"w":0,"h":0,"pix":[1]}}}`,
		// kind names and typos
		`{"inputs":{"a":{"w":1,"h":1,"kind":"","pix":[1]}}}`, `{"inputs":{"a":{"w":1,"h":1,"kind":"float64","pix":[1]}}}`,
		`{"inputs":{"a":{"w":1,"h":1,"kind":"uint8","pix":[1]}}}`, `{"inputs":{"a":{"w":1,"h":1,"kind":"byte","pix":[1]}}}`,
		`{"inputs":{"a":{"w":1,"h":1,"kind":"float32","pix":[1]}}}`, `{"inputs":{"a":{"w":1,"h":1,"kind":"U8","pix":[1]}}}`,
		`{"inputs":{"a":{"w":1,"h":1,"kind":"i16","pix":[1]}}}`, `{"inputs":{"a":{"w":1,"h":1,"kind":"u8 ","pix":[1]}}}`,
		`{"inputs":{"a":{"w":1,"h":1,"kind":"u8","pix":[300]}}}`, `{"inputs":{"a":{"w":1,"h":1,"kind":"f32","pix":[0.1]}}}`,
		// key order, case, escapes, folding, duplicates
		`{"inputs":{"a":{"pix":[1,2.5,3,4],"kind":"u8","h":2,"w":2}}}`, `{"inputs":{"a":{"pix":[1,2,3,4],"w":2,"h":2}}}`,
		`{"inputs":{"a":{"w":4,"h":1,"pix":[1,2,3,4],"w":2,"h":2}}}`, `{"inputs":{"a":{"w":2,"h":2,"pix":[1,2,3,4],"kind":"f32"}}}`,
		`{"INPUTS":{"a":{"W":1,"H":1,"KIND":"u8","PiX":[9]}}}`,
		"{\"input\u017f\":{\"a\":{\"w\":1,\"h\":1,\"\u212aind\":\"u8\",\"pix\":[9]}}}", // long s, Kelvin sign
		"{\"inputs\":{\"a\":{\"w\":1,\"h\":1,\"\u212a\":\"u8\",\"p\u0131x\":[9]}}}",    // not folds of "kind", "pix"
		`{"\u0049nputs":{"a":{"\u0077":1,"h":1,"k\u0069nd":"\u00758","pix":[9]}}}`,
		`{"inputs":{"a":{"w":1,"h":1,"kind":"u8","pIx":[9]}}}`, `{"inputs ":{"a":{"w":1,"h":1,"pix":[9]}}}`,
		`{"inputs":{"a":{"w":1,"h":1,"pix":[1],"pix":[2]}}}`, `{"inputs":{"a":{"w":1,"h":1,"pix":[1,2],"pix":[3]}}}`,
		`{"inputs":{"a":{"w":1,"h":1,"pix":[1],"pix":null}}}`, `{"inputs":{"a":{"w":2,"h":1,"pix":[1,2],"pix":[null,null]}}}`,
		`{"inputs":{"a":{"w":1,"h":1,"kind":"zz","kind":"u8","pix":[1]}}}`, `{"inputs":{"a":{"w":1,"h":1,"kind":"u8","kind":"zz","pix":[1]}}}`,
		`{"inputs":{"a":{"w":9,"h":9,"pix":[1]},"a":{"w":1,"h":1,"pix":[1]}}}`, `{"inputs":{"a":{"w":1,"h":1,"pix":[1]},"a":{"w":9,"h":9,"pix":[1]}}}`,
		`{"inputs":{"a":{"w":1,"h":1,"pix":[1]}},"inputs":{"b":{"w":1,"h":1,"pix":[2]}}}`, `{"inputs":{"a":{"w":9,"h":1,"pix":[1]}},"inputs":null}`,
		`{"inputs":{"a":{"w":1,"h":1,"pix":[1]}},"Inputs":{"a":{"w":1,"h":1,"kind":"u8","pix":[2]}}}`,
		`{"inputs":{"a":{"w":1,"h":1,"pix":[1],"extra":{"pix":[1,2,3],"deep":[[[{"x":null}]]]},"more":"\"]}"}}}`,
		// names
		`{"inputs":{"":{"w":1,"h":1,"pix":[1]},"né😀\ud83d\ude00\ud800x\udc00\ud800\u0041\/\b\f\n\r\t\"\\":{"w":1,"h":1,"pix":[2]}}}`,
		"{\"inputs\":{\"bad\xffutf8\":{\"w\":1,\"h\":1,\"pix\":[1]}}}", "{\"inputs\":{\"ctl\x01\":{\"w\":1,\"h\":1,\"pix\":[1]}}}",
		`{"inputs":{"a\u12":{"w":1,"h":1,"pix":[1]}}}`, `{"inputs":{"a\x":{"w":1,"h":1,"pix":[1]}}}`, `{"inputs":{"a\'":{"w":1,"h":1,"pix":[1]}}}`,
		// framing
		" \t\r\n{ \"inputs\" : { \"a\" : { \"w\" : 1 , \"h\" : 1 , \"pix\" : [ 1 ] } } } \n", `{"inputs":{"a":{"w":1,"h":1,"pix":[1]}}}x`,
		`{"inputs":{"a":{"w":1,"h":1,"pix":[1]}}}{}`, `{"inputs":{"a":{"w":1,"h":1,"pix":[1]}},}`, `{,}`, `{"inputs"}`, `{"inputs":}`, `{inputs:{}}`,
		"\xef\xbb\xbf{}", "{\"inputs\":{}}\x00", `{"a":tru}`, `{"a":nul}`, `{"a":falsey}`, `{"a":"unterminated`, `{"a":"\`,
		strings.Repeat(`{"x":`, 40) + `1` + strings.Repeat(`}`, 40),
		`{"x":` + strings.Repeat(`[`, maxDepth-1) + strings.Repeat(`]`, maxDepth-1) + `}`,
		`{"x":` + strings.Repeat(`[`, maxDepth) + strings.Repeat(`]`, maxDepth) + `}`,
		strings.Repeat(`[`, 100),
	} {
		corpus = append(corpus, []byte(s))
	}
	// Every truncation of one ordinary body.
	whole := benchBody(t, "In", hardWindow(frame.U8, 2, 2, 4))
	for i := range whole {
		corpus = append(corpus, whole[:i])
	}
	return corpus
}

func TestFrameBodyMatchesEncodingJSON(t *testing.T) {
	for _, body := range bodyCorpus(t) {
		if err := diffBody(body); err != nil {
			t.Errorf("%s: %v", clip(body), err)
		}
	}
}

func FuzzFrameBody(f *testing.F) {
	for _, body := range bodyCorpus(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := diffBody(body); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWindowJSONUnmarshal covers what the typed round-trip test does
// not: UnmarshalJSON inside a larger document, null, and validation.
func TestWindowJSONUnmarshal(t *testing.T) {
	var reply struct {
		Outputs map[string][]WindowJSON `json:"outputs"`
	}
	doc := `{"outputs":{"o":[ {"w":2,"h":1,"kind":"uint8","pix":[1,300]} , null, {"pix":[0.5],"h":1,"w":1}]}}`
	if err := json.Unmarshal([]byte(doc), &reply); err != nil {
		t.Fatal(err)
	}
	o := reply.Outputs["o"]
	if len(o) != 3 || o[0].Kind != "u8" || o[0].Pix[1] != 255 || o[1].Pix != nil || o[2].Kind != "" || o[2].Pix[0] != 0.5 {
		t.Errorf("decoded %+v", o)
	}
	for _, bad := range []string{`{"w":1,"h":1,"kind":"i16","pix":[0]}`, `{"w":2,"h":1,"pix":[0]}`, `[]`, `3`} {
		var j WindowJSON
		if err := json.Unmarshal([]byte(bad), &j); err == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
}

// ---- allocation gates ----

// app1u8Frame returns the request body and the outputs of one frame of
// app 1u8 — bpbench's local_json traffic.
func app1u8Frame(t testing.TB) (body []byte, outs map[string][]frame.Window) {
	t.Helper()
	app, err := apps.ByID("1u8")
	if err != nil {
		t.Fatal(err)
	}
	in := app.Graph.Node("Input")
	body = benchBody(t, "Input", app.Sources["Input"](0, in.FrameSize.W, in.FrameSize.H))
	outs = make(map[string][]frame.Window)
	for name, perFrame := range batchFrames(t, app, 1) {
		outs[name] = perFrame[0]
	}
	return body, outs
}

func TestEdgeCodecAllocs(t *testing.T) {
	body, outs := app1u8Frame(t)

	buf, err := appendReply(nil, 0, 1.5, outs)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { buf, _ = appendReply(buf[:0], 7, 1.5, outs) }); n != 0 {
		t.Errorf("encoding a %d-byte reply into a warm buffer allocates %v times, want 0", len(buf), n)
	}

	decode := func(body []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if in, err := parseFrameBody(body); err != nil || len(in) != 1 {
				t.Fatalf("parse: %v (%d inputs)", err, len(in))
			}
		})
	}
	small := decode(body)
	big := decode(benchBody(t, "Input", hardWindow(frame.U8, 256, 192, 0)))
	if small != big || small > 6 {
		t.Errorf("decoding allocates %v times for a 64x48 body and %v for 256x192; want one small constant", small, big)
	}
	for _, k := range []frame.Kind{frame.F32, frame.F64} {
		if n := decode(benchBody(t, "Input", hardWindow(k, 48, 32, 0))); n != small {
			t.Errorf("decoding a %v body allocates %v times, a u8 body %v", k, n, small)
		}
	}

	// Key matching works on the body's bytes: escaped, folded and unknown
	// keys (one of them long) cost nothing beyond the plain body.
	odd := []byte(`{"a_key_that_is_not_part_of_the_grammar_and_is_rather_long":[1,{"x":"y"}],"Inputs":{"Input":` +
		`{"unknown":null,"W":2,"H":1,"Kind":"u8","pix":[1,2]}}}`)
	if n := decode(odd); n != small {
		t.Errorf("a body with escaped and unknown keys allocates %v times, a plain one %v", n, small)
	}
}

// sinkWriter is a reusable http.ResponseWriter that keeps the status
// and the body's length only, so what a served frame allocates is the
// server's and not a recorder's growing buffer.
type sinkWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *sinkWriter) Header() http.Header  { return w.h }
func (w *sinkWriter) WriteHeader(code int) { w.code = code }
func (w *sinkWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(b)
	return len(b), nil
}

func (w *sinkWriter) reset() {
	clear(w.h)
	w.code, w.n = 0, 0
}

// servedFrameAllocs bounds what one served frame of app 1u8 allocates
// from the feed handler to the collect reply, with the requests' own
// construction subtracted: the handlers, the session and the runtime's
// goroutines. It is the count measured with go1.24 on linux/amd64
// (20 before the deadline timers were pooled and the shared header
// values went in); lower it when a change lowers the count.
const servedFrameAllocs = 15

// TestServedFrameAllocs pins the serving layer's allocations per frame
// (bpbench's local_json traffic): one feed and one collect through
// Server.ServeHTTP, no network. Building the two requests is measured
// on its own and subtracted.
func TestServedFrameAllocs(t *testing.T) {
	body, _ := app1u8Frame(t)
	reg := NewRegistry(machine.Embedded())
	if err := reg.AddSuite("1u8"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Options{})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()

	open := httptest.NewRecorder()
	h.ServeHTTP(open, httptest.NewRequest("POST", "/sessions", strings.NewReader(`{"pipeline":"1u8","maxInFlight":1}`)))
	var opened struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(open.Body.Bytes(), &opened); err != nil || open.Code != http.StatusCreated {
		t.Fatalf("open: %d %s", open.Code, open.Body.Bytes())
	}
	feedURL, collURL := "/sessions/"+opened.Session+"/frames", "/sessions/"+opened.Session+"/collect"
	build := func() (feed, coll *http.Request) {
		return httptest.NewRequest("POST", feedURL, bytes.NewReader(body)), httptest.NewRequest("POST", collURL, nil)
	}
	fw, cw := &sinkWriter{h: http.Header{}}, &sinkWriter{h: http.Header{}}
	serveFrame := func() {
		feed, coll := build()
		fw.reset()
		h.ServeHTTP(fw, feed)
		cw.reset()
		h.ServeHTTP(cw, coll)
		if fw.code != http.StatusAccepted || cw.code != http.StatusOK || cw.n < 90_000 {
			t.Fatalf("feed %d, collect %d with a %d-byte reply", fw.code, cw.code, cw.n)
		}
	}
	for i := 0; i < 8; i++ { // warm: the output lists and reply buffers cycle
		serveFrame()
	}
	total := testing.AllocsPerRun(100, serveFrame)
	requests := testing.AllocsPerRun(100, func() { build() })
	served := total - requests
	t.Logf("a served frame allocates %v times (%v with its two requests)", served, total)
	if !raceEnabled && served > servedFrameAllocs {
		t.Errorf("a served app 1u8 frame allocates %v times, bound %d", served, servedFrameAllocs)
	}
}

// BenchmarkEdgeCodec prices the codec on bpbench's local_json traffic
// next to the encoding/json path it replaced (the "reflect" rows, built
// from plainWindow as the reference tests are).
func BenchmarkEdgeCodec(b *testing.B) {
	body, outs := app1u8Frame(b)
	reply, err := appendReply(nil, 0, 1.5, outs)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, size int, fn func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
	}
	run("decode_body/codec", len(body), func() {
		if _, err := parseFrameBody(body); err != nil {
			b.Fatal(err)
		}
	})
	run("decode_body/reflect", len(body), func() {
		var req struct {
			Inputs map[string]plainWindow `json:"inputs"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			b.Fatal(err)
		}
		for _, j := range req.Inputs {
			if _, err := WindowJSON(j).ToWindow(); err != nil {
				b.Fatal(err)
			}
		}
	})
	buf := make([]byte, 0, len(reply))
	run("encode_reply/codec", len(reply), func() { buf, _ = appendReply(buf[:0], 0, 1.5, outs) })
	run("encode_reply/reflect", len(reply), func() { refReply(b, 0, 1.5, outs) })
	run("client_unmarshal_reply/codec", len(reply), func() {
		var r struct {
			Outputs map[string][]WindowJSON `json:"outputs"`
		}
		if err := json.Unmarshal(reply, &r); err != nil {
			b.Fatal(err)
		}
	})
	run("client_unmarshal_reply/reflect", len(reply), func() {
		var r struct {
			Outputs map[string][]plainWindow `json:"outputs"`
		}
		if err := json.Unmarshal(reply, &r); err != nil {
			b.Fatal(err)
		}
	})
}

// ---- the handlers ----

// TestProcessNonFiniteOutput is the regression test for the empty 200:
// samples large enough to overflow app 4's filters used to commit the
// status and then fail to encode.
func TestProcessNonFiniteOutput(t *testing.T) {
	srv, ts := newTestServer(t, "4")
	id := openSession(t, ts, "4", 2)
	p, _ := srv.reg.Get("4")
	in := p.Graph().Node("Input")
	huge := frame.NewWindow(in.FrameSize.W, in.FrameSize.H)
	for i := range huge.Pix {
		huge.Pix[i] = 1.7e308 * float64(1-2*(i%2))
	}
	live := frame.Stats().Live

	resp, err := ts.Client().Post(ts.URL+"/sessions/"+id+"/process", "application/json",
		bytes.NewReader(benchBody(t, "Input", huge)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var reply struct {
		Error string `json:"error"`
	}
	if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(data, &reply) != nil ||
		!strings.Contains(reply.Error, "output ") || !strings.Contains(reply.Error, "sample ") {
		t.Fatalf("non-finite output: status %d, body %q; want 500 with an error naming the output and sample",
			resp.StatusCode, clip(data))
	}
	if n := srv.metrics.sessionErrors.Load(); n != 1 {
		t.Errorf("session_errors = %d, want 1", n)
	}
	if got := frame.Stats().Live; got != live {
		t.Errorf("live pooled buffers went %d -> %d: outputs of the failed reply were not released", live, got)
	}
	// The session is intact: the next frame is served normally.
	if code, _, reply := doJSON(t, ts, "POST", "/sessions/"+id+"/process", nil); code != http.StatusOK {
		t.Errorf("process after the failed reply: got %d (%s)", code, reply["error"])
	}
}

// untouchedBody fails the test if the handler reads the request body.
type untouchedBody struct{ t *testing.T }

func (b untouchedBody) Read([]byte) (int, error) {
	b.t.Error("the body of a request to a full session was read")
	return 0, io.EOF
}
func (untouchedBody) Close() error { return nil }

// TestFeedRefusedBeforeRead pins the order of the checks on a full
// session: 429 without touching the body — which also means a malformed
// body sent to a full session is answered 429, not 400.
func TestFeedRefusedBeforeRead(t *testing.T) {
	srv, ts := newTestServer(t, "5")
	id := openSession(t, ts, "5", 1)
	if code, _, _ := doJSON(t, ts, "POST", "/sessions/"+id+"/frames", nil); code != http.StatusAccepted {
		t.Fatalf("feed: got %d, want 202", code)
	}
	for _, path := range []string{"/frames", "/process"} {
		req := httptest.NewRequest("POST", "/sessions/"+id+path, untouchedBody{t})
		req.ContentLength = int64(len("{not json"))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s on a full session: got %d (Retry-After %q), want 429", path, rec.Code, rec.Header().Get("Retry-After"))
		}
	}
	if n := srv.metrics.rejected.Load(); n != 2 {
		t.Errorf("rejected_429 = %d, want 2", n)
	}
	// With room in the queue the same malformed body is read and refused.
	if code, _, _ := doJSON(t, ts, "POST", "/sessions/"+id+"/collect", nil); code != http.StatusOK {
		t.Fatalf("collect: got %d, want 200", code)
	}
	req := httptest.NewRequest("POST", "/sessions/"+id+"/frames", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body with room in the queue: got %d, want 400", rec.Code)
	}
}

// zeros is an endless stream of whitespace-free filler.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// TestBodyTooLarge checks the 413: by the announced length without
// reading, and by the byte count when no length is announced.
func TestBodyTooLarge(t *testing.T) {
	srv, ts := newTestServer(t, "5")
	id := openSession(t, ts, "5", 1)
	post := func(body io.ReadCloser, length int64) int {
		req := httptest.NewRequest("POST", "/sessions/"+id+"/frames", body)
		req.ContentLength = length
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		return rec.Code
	}
	if code := post(untouchedBody{t}, maxBodyBytes+1); code != http.StatusRequestEntityTooLarge {
		t.Errorf("announced oversize body: got %d, want 413", code)
	}
	if testing.Short() {
		t.Skip("streams 64 MiB")
	}
	if code := post(io.NopCloser(io.LimitReader(zeros{}, maxBodyBytes+1)), -1); code != http.StatusRequestEntityTooLarge {
		t.Errorf("unannounced oversize body: got %d, want 413", code)
	}
}

// slowKernelBackend hands out sessions whose Collect fails with an
// execution error that merely mentions a timeout.
type slowKernelBackend struct{}

func (slowKernelBackend) Open(*Pipeline, OpenOptions) (SessionHandle, error) {
	return &slowKernelSession{}, nil
}

type slowKernelSession struct{ stuckSession }

func (s *slowKernelSession) Collect(time.Duration) (*runtime.StreamResult, error) {
	return nil, errors.New("kernel Median: upstream read timed out")
}
func (s *slowKernelSession) InFlight() int64 { return 0 }
func (s *slowKernelSession) Close() error    { return nil }

// TestCollectTimeoutIsTyped: only the session's own collect deadline is
// a 504; an execution failure whose text mentions a timeout is a 500.
func TestCollectTimeoutIsTyped(t *testing.T) {
	reg := NewRegistry(machine.Embedded())
	if err := reg.AddSuite("5"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Options{Backend: slowKernelBackend{}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := openSession(t, ts, "5", 1)
	if code, _, _ := doJSON(t, ts, "POST", "/sessions/"+id+"/collect", nil); code != http.StatusInternalServerError {
		t.Errorf("execution error mentioning a timeout: got %d, want 500", code)
	}
	if n := srv.metrics.sessionErrors.Load(); n != 1 {
		t.Errorf("session_errors = %d, want 1", n)
	}
}

// TestSessionLatencyRing: stamps are paired with results by sequence
// number, in fixed space, and a result whose stamp is gone reads 0.
func TestSessionLatencyRing(t *testing.T) {
	srv, ts := newTestServer(t, "5")
	id := openSession(t, ts, "5", 2)
	sess, _ := srv.session(id)
	for i := 0; i < 7; i++ {
		for k := 0; k < 2; k++ {
			if _, err := sess.feed(nil); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 2; k++ {
			res, lat, err := sess.collect(10 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if lat <= 0 || lat > 10*time.Second {
				t.Errorf("frame %d: latency %v", res.Seq, lat)
			}
			releaseOutputs(res.Outputs)
		}
	}
	if len(sess.feedTimes) != 2 {
		t.Errorf("latency ring holds %d stamps, want maxInFlight = 2", len(sess.feedTimes))
	}
	if _, err := sess.feed(nil); err != nil {
		t.Fatal(err)
	}
	sess.feedTimes[0] = feedStamp{} // frame 14's stamp is lost
	if _, lat, err := sess.collect(10 * time.Second); err != nil || lat != 0 {
		t.Errorf("collect without a stamp: latency %v, err %v; want 0, nil", lat, err)
	}
}
