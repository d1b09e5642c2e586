// Package kernel provides the kernel library of the block-parallel
// system: the programmer-facing computation kernels used by the paper's
// applications (convolution, median, subtract, histogram/merge, Bayer
// demosaic, gain, downsample) and the compiler-inserted kernels
// (buffer, split, join, replicate, inset, pad, feedback).
//
// The compiler-inserted kernels are value-free FSM steps
// (graph.Step) configured by the plans below: the functional runtime
// (internal/runtime) and the timing simulator (internal/sim) both run
// the same step, so each kernel's firing rule has one definition.
package kernel

import "fmt"

// BufferPlan is the value-free FSM of a 2-D circular buffer kernel
// (paper §III-B): it converts a scan-order sample stream covering a
// DataW×DataH region into the scan-order stream of WinW×WinH windows
// advanced by (StepX, StepY).
type BufferPlan struct {
	DataW, DataH int
	WinW, WinH   int
	StepX, StepY int
}

// WindowsPerRow returns how many windows each output row contains.
func (p BufferPlan) WindowsPerRow() int {
	if p.WinW > p.DataW || p.StepX < 1 {
		return 0
	}
	return (p.DataW-p.WinW)/p.StepX + 1
}

// OutputRows returns how many window rows a frame produces.
func (p BufferPlan) OutputRows() int {
	if p.WinH > p.DataH || p.StepY < 1 {
		return 0
	}
	return (p.DataH-p.WinH)/p.StepY + 1
}

// MemoryWords returns the buffer kernel's storage requirement: the
// paper sizes buffers to double-buffer the larger of input and output,
// which for a windowing buffer is two window-heights of full rows.
func (p BufferPlan) MemoryWords() int64 {
	return 2 * int64(p.DataW) * int64(p.WinH)
}

// Label renders the paper's buffer annotation, e.g.
// "(1x1)[1,1]->(5x5)[1,1] [20x10]".
func (p BufferPlan) Label() string {
	return fmt.Sprintf("(1x1)[1,1]->(%dx%d)[%d,%d] [%dx%d]",
		p.WinW, p.WinH, p.StepX, p.StepY, p.DataW, 2*p.WinH)
}

// Stripe is one column range of a column-split buffer (paper §IV-C,
// Figure 10): the input sample columns [InStart, InEnd) it stores and
// the output window indices [OutStart, OutEnd) it produces per row.
// Neighboring stripes overlap by WinW-StepX input columns, which the
// split kernel replicates to both.
type Stripe struct {
	InStart, InEnd   int
	OutStart, OutEnd int
}

// InWidth returns the stripe's input width in samples.
func (s Stripe) InWidth() int { return s.InEnd - s.InStart }

// OutCount returns windows per row the stripe emits.
func (s Stripe) OutCount() int { return s.OutEnd - s.OutStart }

// ColumnStripes divides the window positions of a width-dataW region
// (window width winW, step stepX) into n contiguous column stripes with
// replicated overlap, as the buffer-splitting transformation requires.
// Stripes are balanced to within one window. It panics if the region
// yields fewer windows than stripes.
func ColumnStripes(dataW, winW, stepX, n int) []Stripe {
	if n < 1 {
		panic("kernel: ColumnStripes with n < 1")
	}
	total := 0
	if winW <= dataW && stepX >= 1 {
		total = (dataW-winW)/stepX + 1
	}
	if total < n {
		panic(fmt.Sprintf("kernel: cannot split %d windows into %d stripes", total, n))
	}
	base, rem := total/n, total%n
	stripes := make([]Stripe, n)
	start := 0
	for i := range stripes {
		count := base
		if i < rem {
			count++
		}
		end := start + count
		stripes[i] = Stripe{
			OutStart: start,
			OutEnd:   end,
			InStart:  start * stepX,
			InEnd:    (end-1)*stepX + winW,
		}
		start = end
	}
	return stripes
}

// InsetPlan is the value-free FSM of an inset (trim) kernel (paper
// §III-C): items arrive as an InW×InH scan-order grid; the plan keeps
// the interior after removing L/R columns and T/B rows.
type InsetPlan struct {
	InW, InH   int
	L, R, T, B int
}

// OutW returns the trimmed width; OutH the trimmed height.
func (p InsetPlan) OutW() int { return p.InW - p.L - p.R }

// OutH returns the trimmed height.
func (p InsetPlan) OutH() int { return p.InH - p.T - p.B }

// Keep reports whether the item at grid position (x, y) survives, and
// whether it is the last kept item of its row.
func (p InsetPlan) Keep(x, y int) (keep, rowEnd bool) {
	if x < p.L || x >= p.InW-p.R || y < p.T || y >= p.InH-p.B {
		return false, false
	}
	return true, x == p.InW-p.R-1
}

// Label renders the paper's inset annotation, e.g. "(0,0)[1,1,1,1]".
func (p InsetPlan) Label() string {
	return fmt.Sprintf("(0,0)[%d,%d,%d,%d]", p.L, p.R, p.T, p.B)
}

// PadPlan is the value-free FSM of a zero-padding kernel (§III-C): the
// stream grows by L/R columns and T/B rows of zeros.
type PadPlan struct {
	InW, InH   int
	L, R, T, B int
}

// OutW returns the padded width.
func (p PadPlan) OutW() int { return p.InW + p.L + p.R }

// OutH returns the padded height.
func (p PadPlan) OutH() int { return p.InH + p.T + p.B }

// Label renders the pad annotation.
func (p PadPlan) Label() string {
	return fmt.Sprintf("pad[%d,%d,%d,%d]", p.L, p.R, p.T, p.B)
}
