package frame

import (
	"math"
	"testing"
)

func TestKindBasics(t *testing.T) {
	cases := []struct {
		k     Kind
		bytes int
		name  string
	}{{F64, 8, "f64"}, {U8, 1, "u8"}, {F32, 4, "f32"}}
	for _, c := range cases {
		if c.k.Bytes() != c.bytes {
			t.Errorf("%v.Bytes() = %d, want %d", c.k, c.k.Bytes(), c.bytes)
		}
		if c.k.String() != c.name {
			t.Errorf("%v.String() = %q, want %q", c.k, c.k.String(), c.name)
		}
		if !c.k.Valid() {
			t.Errorf("%v not valid", c.k)
		}
		got, err := ParseKind(c.name)
		if err != nil || got != c.k {
			t.Errorf("ParseKind(%q) = %v, %v", c.name, got, err)
		}
	}
	if Kind(7).Valid() || kindCount.Valid() {
		t.Error("out-of-range kinds reported valid")
	}
	if _, err := ParseKind("i16"); err == nil {
		t.Error("ParseKind accepted unknown kind")
	}
	if k, err := ParseKind(""); err != nil || k != F64 {
		t.Errorf("ParseKind(\"\") = %v, %v; want F64", k, err)
	}
}

func TestKindWidens(t *testing.T) {
	widens := map[[2]Kind]bool{
		{U8, F32}: true, {U8, F64}: true, {F32, F64}: true,
		{F64, F32}: false, {F64, U8}: false, {F32, U8}: false,
	}
	for pair, want := range widens {
		if got := pair[0].Widens(pair[1]); got != want {
			t.Errorf("%v.Widens(%v) = %v, want %v", pair[0], pair[1], got, want)
		}
	}
	for _, k := range []Kind{F64, U8, F32} {
		if !k.Widens(k) {
			t.Errorf("%v.Widens(self) = false", k)
		}
	}
}

func TestTypedWindowAccessors(t *testing.T) {
	for _, k := range []Kind{U8, F32, F64} {
		w := NewWindowKind(k, 4, 3)
		if w.Kind != k {
			t.Fatalf("kind = %v, want %v", w.Kind, k)
		}
		for y := 0; y < 3; y++ {
			for x := 0; x < 4; x++ {
				w.Set(x, y, float64(10*y+x))
			}
		}
		if w.At(3, 2) != 23 {
			t.Errorf("%v At(3,2) = %v, want 23", k, w.At(3, 2))
		}
		switch k {
		case U8:
			if row := w.RowU8(1); row[2] != 12 {
				t.Errorf("RowU8(1)[2] = %d, want 12", row[2])
			}
		case F32:
			if row := w.RowF32(1); row[2] != 12 {
				t.Errorf("RowF32(1)[2] = %v, want 12", row[2])
			}
		case F64:
			if row := w.Row(1); row[2] != 12 {
				t.Errorf("Row(1)[2] = %v, want 12", row[2])
			}
		}
	}
}

func TestQuantizeU8(t *testing.T) {
	w := NewWindowKind(U8, 1, 1)
	cases := []struct {
		in   float64
		want float64
	}{{-5, 0}, {0, 0}, {0.4, 0}, {0.5, 1}, {127.5, 128}, {254.6, 255}, {255, 255}, {999, 255}}
	for _, c := range cases {
		w.Set(0, 0, c.in)
		if got := w.At(0, 0); got != c.want {
			t.Errorf("u8 store of %v read back %v, want %v", c.in, got, c.want)
		}
	}
}

// Satellite: Equal must respect element kind — a u8 window and an f64
// window with promotion-identical samples are NOT equal.
func TestEqualRespectsKind(t *testing.T) {
	u := NewWindowKind(U8, 2, 2)
	f := NewWindow(2, 2)
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			u.Set(x, y, float64(x+y))
			f.Set(x, y, float64(x+y))
		}
	}
	if u.Equal(f) || f.Equal(u) {
		t.Fatal("Equal compared across element kinds via promotion")
	}
	if !u.AlmostEqual(f, 0) {
		t.Fatal("AlmostEqual should compare across kinds after promotion")
	}
	u2 := u.Clone()
	if u2.Kind != U8 {
		t.Fatalf("Clone dropped kind: %v", u2.Kind)
	}
	if !u.Equal(u2) {
		t.Fatal("Clone not Equal to source")
	}
}

// Satellite: strided-view equality for non-dense typed windows. Views
// over a u8 parent must compare their own samples (not float-promoted,
// not overrunning the row span into the parent's other columns).
func TestStridedTypedViewEquality(t *testing.T) {
	for _, k := range []Kind{U8, F32, F64} {
		parent := NewWindowKind(k, 6, 4)
		for y := 0; y < 4; y++ {
			for x := 0; x < 6; x++ {
				parent.Set(x, y, float64(y*6+x))
			}
		}
		va := parent.View(1, 1, 3, 2) // strided
		if va.IsDense() {
			t.Fatalf("%v view unexpectedly dense", k)
		}
		if va.Kind != k {
			t.Fatalf("view dropped kind: %v", va.Kind)
		}
		dense := va.Clone()
		if !dense.IsDense() {
			t.Fatal("clone of view not dense")
		}
		if !va.Equal(dense) || !dense.Equal(va) {
			t.Fatalf("%v strided view != its dense clone", k)
		}
		// Perturb a parent sample *outside* the view: equality must hold.
		parent.Set(0, 1, 99)
		if !va.Equal(dense) {
			t.Fatalf("%v view equality read outside its span", k)
		}
		// Perturb a sample inside the view: equality must break.
		parent.Set(2, 2, 77)
		if va.Equal(dense) {
			t.Fatalf("%v view equality missed an in-span change", k)
		}
	}
}

func TestConvert(t *testing.T) {
	u := NewWindowKind(U8, 3, 2)
	for y := 0; y < 2; y++ {
		for x := 0; x < 3; x++ {
			u.Set(x, y, float64(40*y+x))
		}
	}
	f64w := u.Convert(F64)
	if f64w.Kind != F64 || f64w.At(2, 1) != 42 {
		t.Fatalf("u8→f64 convert wrong: %v %v", f64w.Kind, f64w.At(2, 1))
	}
	f32w := u.Convert(F32)
	if f32w.Kind != F32 || !f32w.AlmostEqual(u, 0) {
		t.Fatal("u8→f32 convert not exact")
	}
	// Narrowing quantizes.
	f := NewWindow(1, 1)
	f.Set(0, 0, 300.7)
	if got := f.Convert(U8).At(0, 0); got != 255 {
		t.Fatalf("f64→u8 clamp = %v, want 255", got)
	}
}

func TestAllocKindPooled(t *testing.T) {
	for _, k := range []Kind{U8, F32, F64} {
		w := AllocKind(k, 16, 8)
		if !w.Pooled() {
			t.Fatalf("AllocKind(%v) not pooled", k)
		}
		if w.Kind != k {
			t.Fatalf("AllocKind kind = %v, want %v", w.Kind, k)
		}
		for y := 0; y < 8; y++ {
			for x := 0; x < 16; x++ {
				if w.At(x, y) != 0 {
					t.Fatalf("AllocKind(%v) not zeroed at (%d,%d)", k, x, y)
				}
			}
		}
		w.Release()
	}
}

// Buckets are classed by bytes: a u8 window recycles into buffers that
// an f64 window of 1/8 the sample count also uses.
func TestPoolBucketsShareAcrossKinds(t *testing.T) {
	// Drain potential cross-test noise by sampling hit-rate deltas.
	u := AllocKind(U8, 64, 8) // 512 bytes
	u.Release()
	before := Stats()
	f := AllocKind(F64, 8, 8) // also 512 bytes
	after := Stats()
	if after.Hits == before.Hits {
		t.Skip("pool entry evicted between ops (GC); not a correctness failure")
	}
	if f.Kind != F64 {
		t.Fatalf("kind = %v", f.Kind)
	}
	f.Release()
}

func TestPoisonTypedWindows(t *testing.T) {
	defer SetPoison(SetPoison(true))
	u := AllocKind(U8, 8, 1)
	row := u.RowU8(0)
	u.Release()
	for i, v := range row {
		if v != 0xFF {
			t.Fatalf("released u8 storage not poisoned at %d: %d", i, v)
		}
	}
	f := AllocKind(F32, 4, 1)
	frow := f.RowF32(0)
	f.Release()
	for i, v := range frow {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("released f32 storage not NaN-poisoned at %d: %v", i, v)
		}
	}
}

func TestTypedGenerator(t *testing.T) {
	g := Typed(U8, Bayer)
	f := g(1, 8, 6)
	if f.Kind != U8 {
		t.Fatalf("Typed generator kind = %v", f.Kind)
	}
	// Quantized u8 frame must match quantizing the f64 frame sample-wise.
	ref := Bayer(1, 8, 6)
	for y := 0; y < 6; y++ {
		for x := 0; x < 8; x++ {
			if f.At(x, y) != float64(quantizeU8(ref.At(x, y))) {
				t.Fatalf("Typed(U8) mismatch at (%d,%d)", x, y)
			}
		}
	}
	if Typed(F64, Bayer)(0, 4, 4).Kind != F64 {
		t.Fatal("Typed(F64) should be identity")
	}
}

func TestRowBytes(t *testing.T) {
	u := NewWindowKind(U8, 4, 2)
	u.Set(1, 1, 7)
	b := u.RowBytes(1)
	if len(b) != 4 || b[1] != 7 {
		t.Fatalf("RowBytes u8 = %v", b)
	}
	f := NewWindow(3, 1)
	f.Set(0, 0, 1)
	if got := len(f.RowBytes(0)); got != 24 {
		t.Fatalf("RowBytes f64 len = %d, want 24", got)
	}
}
