package frame

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewWindowZeroed(t *testing.T) {
	w := NewWindow(3, 2)
	if w.W != 3 || w.H != 2 || len(w.Pix) != 6 {
		t.Fatalf("bad window: %+v", w)
	}
	for i, v := range w.Pix {
		if v != 0 {
			t.Errorf("pix[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewWindowNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWindow(-1, 2) did not panic")
		}
	}()
	NewWindow(-1, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	w := NewWindow(4, 3)
	w.Set(2, 1, 7.5)
	if got := w.At(2, 1); got != 7.5 {
		t.Errorf("At(2,1) = %v", got)
	}
	if got := w.At(1, 2); got != 0 {
		t.Errorf("At(1,2) = %v, want 0", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	w := NewWindow(2, 2)
	for _, c := range []struct{ x, y int }{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", c.x, c.y)
				}
			}()
			w.At(c.x, c.y)
		}()
	}
}

func TestScalarAndValue(t *testing.T) {
	s := Scalar(3.25)
	if s.W != 1 || s.H != 1 || s.Value() != 3.25 {
		t.Errorf("Scalar round trip failed: %+v", s)
	}
	defer func() {
		if recover() == nil {
			t.Error("Value() on 2x1 window did not panic")
		}
	}()
	NewWindow(2, 1).Value()
}

func TestFromRows(t *testing.T) {
	w := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if w.W != 3 || w.H != 2 {
		t.Fatalf("bad shape %dx%d", w.W, w.H)
	}
	if w.At(0, 0) != 1 || w.At(2, 1) != 6 || w.At(1, 1) != 5 {
		t.Errorf("bad contents: %v", w.Pix)
	}
	if !FromRows(nil).Equal(Window{}) {
		t.Error("FromRows(nil) should be empty window")
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestCloneIsDeep(t *testing.T) {
	w := FromRows([][]float64{{1, 2}, {3, 4}})
	c := w.Clone()
	c.Set(0, 0, 99)
	if w.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestSub(t *testing.T) {
	w := FromRows([][]float64{
		{0, 1, 2, 3},
		{4, 5, 6, 7},
		{8, 9, 10, 11},
	})
	s := w.Sub(1, 1, 2, 2)
	want := FromRows([][]float64{{5, 6}, {9, 10}})
	if !s.Equal(want) {
		t.Errorf("Sub = %v, want %v", s.Pix, want.Pix)
	}
}

func TestEqualAndAlmostEqual(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1, 2.005}})
	if a.Equal(b) {
		t.Error("Equal should be exact")
	}
	if !a.AlmostEqual(b, 0.01) {
		t.Error("AlmostEqual tol=0.01 should pass")
	}
	if a.AlmostEqual(b, 0.001) {
		t.Error("AlmostEqual tol=0.001 should fail")
	}
	if a.Equal(NewWindow(2, 2)) || a.AlmostEqual(NewWindow(2, 2), 1e9) {
		t.Error("shape mismatch must never be equal")
	}
}

func TestWindowsScanOrder(t *testing.T) {
	f := NewWindow(4, 3)
	var visits [][2]int
	Windows(f, 2, 2, 1, 1, func(x, y int) { visits = append(visits, [2]int{x, y}) })
	want := [][2]int{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}}
	if len(visits) != len(want) {
		t.Fatalf("got %d visits, want %d", len(visits), len(want))
	}
	for i := range want {
		if visits[i] != want[i] {
			t.Errorf("visit %d = %v, want %v", i, visits[i], want[i])
		}
	}
}

func TestWindowsDegenerate(t *testing.T) {
	called := false
	Windows(NewWindow(2, 2), 3, 3, 1, 1, func(x, y int) { called = true })
	if called {
		t.Error("Windows should not fire when window exceeds frame")
	}
	Windows(NewWindow(2, 2), 1, 1, 0, 1, func(x, y int) { called = true })
	if called {
		t.Error("Windows should not fire with zero step")
	}
}

func TestSubWithinBoundsQuick(t *testing.T) {
	prop := func(w8, h8, x8, y8, sw8, sh8 uint8) bool {
		w, h := int(w8%16)+4, int(h8%16)+4
		f := LCG(1, w, h)
		sw, sh := int(sw8%3)+1, int(sh8%3)+1
		x, y := int(x8)%(w-sw+1), int(y8)%(h-sh+1)
		s := f.Sub(x, y, sw, sh)
		for dy := 0; dy < sh; dy++ {
			for dx := 0; dx < sw; dx++ {
				if s.At(dx, dy) != f.At(x+dx, y+dy) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// sameView reports whether two windows are equal field for field:
// shape, stride, kind, the same pooled backing, and slice headers with
// the same base, length and capacity.
func sameView(a, b Window) bool {
	return a.W == b.W && a.H == b.H && a.Stride == b.Stride && a.Kind == b.Kind && a.ref == b.ref &&
		unsafe.SliceData(a.Pix) == unsafe.SliceData(b.Pix) && len(a.Pix) == len(b.Pix) && cap(a.Pix) == cap(b.Pix) &&
		unsafe.SliceData(a.raw) == unsafe.SliceData(b.raw) && len(a.raw) == len(b.raw) && cap(a.raw) == cap(b.raw)
}

// TestAppendColumnsMatchesView pins AppendColumns to the per-window
// cut it replaces (graph.Batch.Window is View(j*sx, 0, bw, H)): every
// kind, dense and strided and pooled parents, one window, adjacent
// windows (sx == bw) and overlapping ones (sx < bw).
func TestAppendColumnsMatchesView(t *testing.T) {
	for _, k := range []Kind{F64, U8, F32} {
		pooled := AllocKind(k, 13, 3)
		parents := map[string]Window{
			"dense":   NewWindowKind(k, 13, 3),
			"strided": NewWindowKind(k, 17, 5).View(2, 1, 13, 3),
			"pooled":  pooled,
		}
		for pname, p := range parents {
			for _, c := range []struct{ n, sx, bw int }{
				{1, 2, 2}, {1, 1, 13}, {6, 2, 2}, {13, 1, 1}, {5, 2, 5}, {11, 1, 3}, {4, 3, 4}, {3, 0, 2}, {2, 5, 0},
			} {
				seed := []Window{Scalar(7)}
				got := p.AppendColumns(seed, c.n, c.sx, c.bw)
				if len(got) != 1+c.n || !sameView(got[0], seed[0]) {
					t.Fatalf("%v %s %+v: %d windows, prefix kept %v", k, pname, c, len(got), sameView(got[0], seed[0]))
				}
				for j := 0; j < c.n; j++ {
					if want := p.View(j*c.sx, 0, c.bw, p.H); !sameView(got[1+j], want) {
						t.Errorf("%v %s %+v: window %d is %+v, View gives %+v", k, pname, c, j, got[1+j], want)
					}
				}
			}
		}
		pooled.Release()
	}
	defer func() {
		if recover() == nil {
			t.Error("AppendColumns past the parent's width did not panic")
		}
	}()
	NewWindow(6, 2).AppendColumns(nil, 3, 2, 3)
}

// TestSetRowMatchesSet: a row stored whole narrows exactly as Set
// narrows each sample, u8 halves and clamps and f32 rounding included.
func TestSetRowMatchesSet(t *testing.T) {
	src := []float64{-3, 0, 0.5, 1.5, 2.5, 254.5, 254.49, 255, 300, 1.0 / 3, 16777217, math.MaxFloat64}
	for _, k := range []Kind{F64, U8, F32} {
		parent := NewWindowKind(k, len(src)+2, 3)
		got := parent.View(1, 0, len(src), 3)
		want := NewWindowKind(k, len(src), 3)
		got.SetRow(1, src)
		for x, v := range src {
			want.Set(x, 1, v)
		}
		for x := range src {
			if g, w := got.At(x, 1), want.At(x, 1); math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%v sample %d (%v): SetRow stored %v, Set %v", k, x, src[x], g, w)
			}
			if got.At(x, 0) != 0 || got.At(x, 2) != 0 {
				t.Errorf("%v: SetRow(1) wrote outside its row", k)
			}
		}
		if parent.At(0, 1) != 0 || parent.At(len(src)+1, 1) != 0 {
			t.Errorf("%v: SetRow on a view wrote outside its columns", k)
		}
	}
}
