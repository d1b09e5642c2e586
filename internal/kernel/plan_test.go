package kernel

import (
	"reflect"
	"testing"
	"testing/quick"

	"blockpar/internal/frame"
	"blockpar/internal/token"
)

func TestBufferPlanCounts(t *testing.T) {
	p := BufferPlan{DataW: 100, DataH: 100, WinW: 5, WinH: 5, StepX: 1, StepY: 1}
	if p.WindowsPerRow() != 96 || p.OutputRows() != 96 {
		t.Fatalf("counts = %d x %d, want 96 x 96", p.WindowsPerRow(), p.OutputRows())
	}
	p2 := BufferPlan{DataW: 8, DataH: 6, WinW: 2, WinH: 2, StepX: 2, StepY: 2}
	if p2.WindowsPerRow() != 4 || p2.OutputRows() != 3 {
		t.Fatalf("counts = %d x %d, want 4 x 3", p2.WindowsPerRow(), p2.OutputRows())
	}
	tooBig := BufferPlan{DataW: 3, DataH: 3, WinW: 5, WinH: 5, StepX: 1, StepY: 1}
	if tooBig.WindowsPerRow() != 0 || tooBig.OutputRows() != 0 {
		t.Fatal("oversized window should give zero iterations")
	}
}

// emission is one window a buffer emits: its top-left position, and
// whether the buffer's end-of-line follows it.
type emission struct {
	wx, wy int
	rowEnd bool
}

// bufferEmissions runs the buffer step over one frame of p's region
// whose sample at (x, y) is y*1000+x, fed as single samples or, with
// spans, as one row span per row, and reads each emitted window's
// position back from its top-left sample.
func bufferEmissions(t testing.TB, p BufferPlan, spans bool) []emission {
	t.Helper()
	img := frame.NewWindow(p.DataW, p.DataH)
	for y := 0; y < p.DataH; y++ {
		for x := 0; x < p.DataW; x++ {
			img.Set(x, y, float64(y*1000+x))
		}
	}
	h := newStepHarness(t, Buffer("B", p))
	if spans {
		h.feedRows("in", img, 0)
	} else {
		h.feedFrame("in", img, 0)
	}
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	var got []emission
	for _, it := range h.output("out") {
		switch {
		case !it.IsToken:
			for j := 0; j < it.BatchN(); j++ {
				v := int(it.Windows(j, j+1).Win.At(0, 0))
				got = append(got, emission{v % 1000, v / 1000, false})
			}
		case it.Tok.Kind == token.EndOfLine:
			got[len(got)-1].rowEnd = true
		}
	}
	return got
}

// TestBufferPlanOnSampleScanOrder walks the buffer step over a frame in
// scan order, sample by sample and row span by row span: both must emit
// the same windows, in scan order, each row ended once.
func TestBufferPlanOnSampleScanOrder(t *testing.T) {
	p := BufferPlan{DataW: 5, DataH: 4, WinW: 3, WinH: 3, StepX: 1, StepY: 1}
	want := []emission{
		{0, 0, false}, {1, 0, false}, {2, 0, true},
		{0, 1, false}, {1, 1, false}, {2, 1, true},
	}
	for _, spans := range []bool{false, true} {
		if got := bufferEmissions(t, p, spans); !reflect.DeepEqual(got, want) {
			t.Errorf("spans=%v: emissions = %v, want %v", spans, got, want)
		}
	}
}

func TestBufferPlanStride(t *testing.T) {
	p := BufferPlan{DataW: 8, DataH: 4, WinW: 2, WinH: 2, StepX: 2, StepY: 2}
	var count, rowEnds int
	for _, e := range bufferEmissions(t, p, false) {
		count++
		if e.rowEnd {
			rowEnds++
		}
	}
	if count != p.WindowsPerRow()*p.OutputRows() {
		t.Errorf("emitted %d windows, want %d", count, p.WindowsPerRow()*p.OutputRows())
	}
	if rowEnds != p.OutputRows() {
		t.Errorf("row ends = %d, want %d", rowEnds, p.OutputRows())
	}
}

func TestBufferPlanEmissionTotalsQuick(t *testing.T) {
	prop := func(dw, dh, ww, wh, sx, sy uint8) bool {
		p := BufferPlan{
			DataW: int(dw%24) + 1, DataH: int(dh%24) + 1,
			WinW: int(ww%5) + 1, WinH: int(wh%5) + 1,
			StepX: int(sx%3) + 1, StepY: int(sy%3) + 1,
		}
		scalar := bufferEmissions(t, p, false)
		if !reflect.DeepEqual(bufferEmissions(t, p, true), scalar) {
			return false // spans and samples disagree
		}
		var count, rowEnds int
		for _, e := range scalar {
			count++
			if e.rowEnd {
				rowEnds++
			}
			if e.wx+p.WinW > p.DataW || e.wy+p.WinH > p.DataH {
				return false // window out of bounds
			}
		}
		wantRowEnds := p.OutputRows()
		if p.WindowsPerRow() == 0 {
			wantRowEnds = 0
		}
		return count == p.WindowsPerRow()*p.OutputRows() && rowEnds == wantRowEnds
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestBufferPlanMemoryAndLabel(t *testing.T) {
	p := BufferPlan{DataW: 20, DataH: 12, WinW: 5, WinH: 5, StepX: 1, StepY: 1}
	if p.MemoryWords() != 200 {
		t.Errorf("MemoryWords = %d, want 200 (double-buffered 20x5)", p.MemoryWords())
	}
	if p.Label() != "(1x1)[1,1]->(5x5)[1,1] [20x10]" {
		t.Errorf("Label = %q", p.Label())
	}
}

func TestColumnStripes(t *testing.T) {
	// Paper Figure 10: width-12 data, 3x3 windows split into 2 buffers
	// shares the 2 overlap columns.
	s := ColumnStripes(12, 3, 1, 2)
	if len(s) != 2 {
		t.Fatalf("stripes = %d", len(s))
	}
	// 10 windows total; 5 + 5.
	if s[0].OutCount() != 5 || s[1].OutCount() != 5 {
		t.Errorf("out counts = %d, %d", s[0].OutCount(), s[1].OutCount())
	}
	if s[0].InStart != 0 || s[0].InEnd != 7 {
		t.Errorf("stripe0 in = [%d,%d), want [0,7)", s[0].InStart, s[0].InEnd)
	}
	if s[1].InStart != 5 || s[1].InEnd != 12 {
		t.Errorf("stripe1 in = [%d,%d), want [5,12)", s[1].InStart, s[1].InEnd)
	}
	// Overlap = winW - stepX = 2 columns (5, 6).
	if got := s[0].InEnd - s[1].InStart; got != 2 {
		t.Errorf("overlap = %d, want 2", got)
	}
}

func TestColumnStripesUneven(t *testing.T) {
	s := ColumnStripes(10, 3, 1, 3) // 8 windows into 3 stripes: 3,3,2
	if s[0].OutCount() != 3 || s[1].OutCount() != 3 || s[2].OutCount() != 2 {
		t.Errorf("counts = %d,%d,%d", s[0].OutCount(), s[1].OutCount(), s[2].OutCount())
	}
	// Output ranges must tile [0, 8).
	if s[0].OutStart != 0 || s[2].OutEnd != 8 {
		t.Error("stripes do not tile the window range")
	}
}

func TestColumnStripesPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { ColumnStripes(4, 3, 1, 5) }, // 2 windows, 5 stripes
		func() { ColumnStripes(10, 3, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestColumnStripesCoverageQuick(t *testing.T) {
	prop := func(dw, ww, sx, n8 uint8) bool {
		winW := int(ww%4) + 1
		stepX := int(sx%3) + 1
		dataW := winW + int(dw%40)
		total := (dataW-winW)/stepX + 1
		n := int(n8)%4 + 1
		if total < n {
			return true
		}
		stripes := ColumnStripes(dataW, winW, stepX, n)
		// Output ranges tile [0, total); input ranges cover what each
		// stripe's windows need, within bounds.
		next := 0
		for _, s := range stripes {
			if s.OutStart != next || s.OutCount() < 1 {
				return false
			}
			next = s.OutEnd
			if s.InStart != s.OutStart*stepX || s.InEnd != (s.OutEnd-1)*stepX+winW {
				return false
			}
			if s.InStart < 0 || s.InEnd > dataW {
				return false
			}
		}
		return next == total
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestInsetPlan(t *testing.T) {
	p := InsetPlan{InW: 6, InH: 5, L: 1, R: 2, T: 1, B: 1}
	if p.OutW() != 3 || p.OutH() != 3 {
		t.Fatalf("out dims %dx%d", p.OutW(), p.OutH())
	}
	var kept, rowEnds int
	for y := 0; y < p.InH; y++ {
		for x := 0; x < p.InW; x++ {
			if k, re := p.Keep(x, y); k {
				kept++
				if re {
					rowEnds++
				}
			}
		}
	}
	if kept != 9 || rowEnds != 3 {
		t.Errorf("kept=%d rowEnds=%d, want 9, 3", kept, rowEnds)
	}
	if k, _ := p.Keep(0, 2); k {
		t.Error("left column should be trimmed")
	}
	if k, _ := p.Keep(3, 0); k {
		t.Error("top row should be trimmed")
	}
	if p.Label() != "(0,0)[1,2,1,1]" {
		t.Errorf("Label = %q", p.Label())
	}
}

func TestPadPlanDims(t *testing.T) {
	p := PadPlan{InW: 4, InH: 3, L: 1, R: 1, T: 2, B: 0}
	if p.OutW() != 6 || p.OutH() != 5 {
		t.Errorf("out dims %dx%d", p.OutW(), p.OutH())
	}
	if p.Label() != "pad[1,1,2,0]" {
		t.Errorf("Label = %q", p.Label())
	}
}
