package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"blockpar/internal/frame"
	"blockpar/internal/graph"
)

// noiseSpan fills a 3-row span of the given kind with seeded noise
// drawn from a small set of values, so windows hold duplicates; float
// kinds also draw ±0 and ±Inf. Every value is exact in its kind.
func noiseSpan(rng *rand.Rand, k frame.Kind, w int) frame.Window {
	vals := []float64{0, 1, 2, 7, 128, 200, 255}
	if k != frame.U8 {
		vals = append(vals, math.Copysign(0, -1), -1, -2.5, 0.75, 1e30, -3e-20, math.Inf(1), math.Inf(-1))
	}
	win := frame.NewWindowKind(k, w, 3)
	for y := 0; y < 3; y++ {
		for x := 0; x < w; x++ {
			win.Set(x, y, vals[rng.Intn(len(vals))])
		}
	}
	return win
}

// sortedMedian is the reference: window j's nine samples, sorted.
func sortedMedian(in frame.Window, j, sx int) float64 {
	var s []float64
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			s = append(s, in.At(j*sx+x, y))
		}
	}
	sort.Float64s(s)
	return s[4]
}

// fireMedian runs one 3×3 median firing on a span of n windows sx
// columns apart and returns the emitted medians.
func fireMedian(t *testing.T, in frame.Window, n, sx int) []frame.Window {
	t.Helper()
	ctx := &batchCtx{scalarCtx{in: map[string]frame.Window{"in": in}, out: map[string][]frame.Window{}}, map[string]graph.Batch{}}
	if n > 1 {
		ctx.batch["in"] = graph.Batch{N: int32(n), Sx: int32(sx), Bw: 3}
	}
	if err := Median("m", 3).Behavior.(graph.Invoker).Invoke("runMedian", ctx); err != nil {
		t.Fatal(err)
	}
	out := ctx.out["out"]
	if len(out) != n {
		t.Fatalf("emitted %d medians for %d windows", len(out), n)
	}
	return out
}

// TestMedian3MatchesSort holds the 3×3 median's sorted-column loop to a
// sort of each window's nine samples, on seeded noise with duplicates,
// ±0 and ±Inf (where a column bug shows: a ramp's columns arrive
// sorted), for every element kind, stride and a span of one, two and
// 61 windows. Medians compare with ==, so -0 and +0 match; the median
// of a window holding a NaN is unspecified and only has to come back.
func TestMedian3MatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, kind := range []frame.Kind{frame.U8, frame.F32, frame.F64} {
		for _, sx := range []int{1, 2, 3} {
			for _, n := range []int{1, 2, 61} {
				t.Run(fmt.Sprintf("%v-sx%d-n%d", kind, sx, n), func(t *testing.T) {
					for trial := 0; trial < 20; trial++ {
						in := noiseSpan(rng, kind, (n-1)*sx+3)
						for j, got := range fireMedian(t, in, n, sx) {
							if want := sortedMedian(in, j, sx); got.Value() != want {
								t.Fatalf("trial %d window %d: median %v, sort says %v\n%v", trial, j, got.Value(), want, in)
							}
						}
					}
				})
			}
		}
	}
	t.Run("nan", func(t *testing.T) {
		for _, kind := range []frame.Kind{frame.F32, frame.F64} {
			in := noiseSpan(rng, kind, 7)
			in.Set(3, 1, math.NaN())
			fireMedian(t, in, 5, 1)
		}
	})
}

// BenchmarkMedianSpan3 times the 3×3 median's span loop per window, on
// a ramp (the input kernel.median_ns_per_sample times) and on 2,048
// distinct noise spans, which no branch predictor can learn. Sorted
// columns and min/max make the two cost the same.
func BenchmarkMedianSpan3(b *testing.B) {
	const n, spans = 61, 2048
	for _, kind := range []frame.Kind{frame.F64, frame.U8} {
		rng := rand.New(rand.NewSource(1))
		noise := make([]frame.Window, spans)
		for i := range noise {
			noise[i] = frame.NewWindowKind(kind, n+2, 3)
			for y := 0; y < 3; y++ {
				for x := 0; x < n+2; x++ {
					noise[i].Set(x, y, float64(rng.Intn(256)))
				}
			}
		}
		for _, in := range []struct {
			name  string
			spans []frame.Window
		}{{"ramp", []frame.Window{span(kind, n+2, 3)}}, {"noise", noise}} {
			b.Run(fmt.Sprintf("%v-%s", kind, in.name), func(b *testing.B) {
				inv := Median("m", 3).Behavior.(graph.Invoker)
				ctx := &allocCtx{in: map[string]frame.Window{}, batch: map[string]graph.Batch{"in": {N: n, Sx: 1, Bw: 3}}}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ctx.in["in"] = in.spans[i%len(in.spans)]
					if err := inv.Invoke("runMedian", ctx); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/window")
			})
		}
	}
}
