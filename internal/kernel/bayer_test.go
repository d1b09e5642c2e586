package kernel

import (
	"math"
	"math/rand"
	"testing"

	"blockpar/internal/frame"
	"blockpar/internal/graph"
)

// bayerNoise is a w×h mosaic of seeded noise at kind k: bytes for u8,
// so that two- and four-sample averages land on .5 (the u8 rounding
// tie) and on .25/.75; fractional values for the float kinds.
func bayerNoise(k frame.Kind, w, h int, rng *rand.Rand) frame.Window {
	f := frame.NewWindowKind(k, w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := float64(rng.Intn(256))
			if k != frame.U8 {
				v = rng.Float64()*512 - 128
			}
			f.Set(x, y, v)
		}
	}
	return f
}

// TestBayerSpanMatchesGolden pins the demosaic kernel to the sequential
// golden frame.BayerDemosaic bit for bit, for every element kind: the
// kernel fires once per quad row on a span of every window in it (a
// strided view of the mosaic), and once per window through a context
// without batches, and each quad must equal the golden planes narrowed
// by Set's rule.
func TestBayerSpanMatchesGolden(t *testing.T) {
	const w, h = 22, 14 // 10×6 quads
	rng := rand.New(rand.NewSource(5))
	for _, k := range []frame.Kind{frame.U8, frame.F32, frame.F64} {
		mosaic := bayerNoise(k, w, h, rng)
		gr, gg, gb := frame.BayerDemosaic(mosaic)
		golden := map[string]frame.Window{"r": gr.Convert(k), "g": gg.Convert(k), "b": gb.Convert(k)}
		ties := 0
		for _, g := range []frame.Window{gr, gg, gb} {
			for _, v := range g.Pix {
				if v-math.Floor(v) == 0.5 {
					ties++
				}
			}
		}
		if k == frame.U8 && ties == 0 {
			t.Fatal("the u8 noise has no average on .5; the rounding tie is untested")
		}
		n := (w - 2) / 2
		for qy := 0; qy < (h-2)/2; qy++ {
			span := mosaic.View(0, 2*qy, w, 4)
			batched := &batchCtx{
				scalarCtx: scalarCtx{in: map[string]frame.Window{"in": span}, out: map[string][]frame.Window{}},
				batch:     map[string]graph.Batch{"in": {N: int32(n), Sx: 2, Bw: 4}},
			}
			scalar := &scalarCtx{in: map[string]frame.Window{}, out: map[string][]frame.Window{}}
			inv := BayerDemosaic("bayer").Behavior.(graph.Invoker)
			if err := inv.Invoke("demosaic", batched); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < n; j++ {
				scalar.in["in"] = span.View(2*j, 0, 4, 4)
				if err := inv.Invoke("demosaic", scalar); err != nil {
					t.Fatal(err)
				}
			}
			for _, plane := range []string{"r", "g", "b"} {
				for path, got := range map[string][]frame.Window{"span": batched.out[plane], "per-window": scalar.out[plane]} {
					if len(got) != n {
						t.Fatalf("%v %s %s row %d: %d quads, want %d", k, path, plane, qy, len(got), n)
					}
					for j, q := range got {
						want := golden[plane].View(2*j, 2*qy, 2, 2)
						if q.Kind != k || q.W != 2 || q.H != 2 {
							t.Fatalf("%v %s %s quad %d is %v", k, path, plane, j, q)
						}
						for y := 0; y < 2; y++ {
							for x := 0; x < 2; x++ {
								if g, w := q.At(x, y), want.At(x, y); math.Float64bits(g) != math.Float64bits(w) {
									t.Errorf("%v %s %s quad (%d,%d) sample (%d,%d): %v, golden %v",
										k, path, plane, j, qy, x, y, g, w)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestBayerRefusesOddStride: windows step by 2, so an odd span stride
// is an executor bug; the kernel reports it and takes nothing from the
// arena.
func TestBayerRefusesOddStride(t *testing.T) {
	live := frame.Stats().Live
	ctx := &allocCtx{
		in:    map[string]frame.Window{"in": span(frame.U8, 7, 4)},
		batch: map[string]graph.Batch{"in": {N: 4, Sx: 1, Bw: 4}},
	}
	if err := BayerDemosaic("bayer").Behavior.(graph.Invoker).Invoke("demosaic", ctx); err == nil {
		t.Error("demosaic accepted a span with stride 1")
	}
	if got := frame.Stats().Live; got != live {
		t.Errorf("a refused firing left %d arena buffers live", got-live)
	}
}
