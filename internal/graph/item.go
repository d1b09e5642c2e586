package graph

import (
	"fmt"

	"blockpar/internal/frame"
	"blockpar/internal/token"
)

// Item is one element of a stream channel: either a data window or a
// control token (paper §II-C: control tokens travel in-band, in order,
// on the same streams as the data).
//
// A data item may additionally be a row batch (B.N > 1): one physical
// delivery standing for N consecutive logical items of the stream. The
// executor guarantees non-batch-aware consumers never observe batches
// (it splits them back into N view items at the edge), so the logical
// stream — the sequence the oracle, goldens, and wire protocol see —
// is identical with batching on or off.
type Item struct {
	IsToken bool
	Tok     token.Token
	Win     frame.Window
	// B describes the row batch this item carries; the zero value (and
	// any N <= 1) means a plain single-window item.
	B Batch
}

// Batch describes how one wide single-plane window packs N consecutive
// logical windows of a stream: logical window j is the Bw-column view
// of Win starting at element column j*Sx (all windows share Win's
// height). Overlapping windows (convolution inputs: Sx < Bw) and
// concatenated outputs (Sx == Bw) both fit this shape, which is what
// lets a whole row of kernel firings travel as one channel delivery and
// run as one bounds-check-hoisted inner loop.
type Batch struct {
	// N is the number of logical windows; 0 or 1 means "not a batch".
	N int32
	// Sx is the element step between consecutive logical windows.
	Sx int32
	// Bw is the width of each logical window.
	Bw int32
}

// IsBatch reports whether the descriptor packs more than one window.
func (b Batch) IsBatch() bool { return b.N > 1 }

// SpanW returns the window width a batch of this shape occupies.
func (b Batch) SpanW() int { return int(b.N-1)*int(b.Sx) + int(b.Bw) }

// Window returns the j-th logical window as a view sharing win's
// storage (and pooled backing, if any).
func (b Batch) Window(win frame.Window, j int) frame.Window {
	return win.View(j*int(b.Sx), 0, int(b.Bw), win.H)
}

// DataItem wraps a window as a stream item.
func DataItem(w frame.Window) Item { return Item{Win: w} }

// BatchItem wraps a window carrying a row batch as a stream item. The
// window's width must equal b.SpanW(); N <= 1 degrades to DataItem.
func BatchItem(w frame.Window, b Batch) Item {
	if !b.IsBatch() {
		return Item{Win: w}
	}
	if w.W != b.SpanW() {
		panic(fmt.Sprintf("graph: batch %+v needs a %d-wide window, got %dx%d", b, b.SpanW(), w.W, w.H))
	}
	return Item{Win: w, B: b}
}

// TokenItem wraps a control token as a stream item.
func TokenItem(t token.Token) Item { return Item{IsToken: true, Tok: t} }

// BatchN returns the number of logical stream items this physical item
// stands for (1 for tokens and plain data items).
func (it Item) BatchN() int {
	if !it.IsToken && it.B.IsBatch() {
		return int(it.B.N)
	}
	return 1
}

// Words returns the channel words this item occupies (tokens cost one
// word of signalling).
func (it Item) Words() int64 {
	if it.IsToken {
		return 1
	}
	return int64(it.Win.W * it.Win.H)
}

func (it Item) String() string {
	if it.IsToken {
		return it.Tok.String()
	}
	if it.B.IsBatch() {
		return fmt.Sprintf("%s[batch %dx%dw step %d]", it.Win, it.B.N, it.B.Bw, it.B.Sx)
	}
	return it.Win.String()
}

// Windows returns logical windows [j0, j1) of a data item as an item
// viewing the same storage (and pooled backing, if any): the item
// itself when that is all of it, a plain view for one window, a batch
// view for more.
func (it Item) Windows(j0, j1 int) Item {
	if j0 == 0 && j1 == it.BatchN() {
		return it
	}
	sx, bw, n := int(it.B.Sx), int(it.B.Bw), j1-j0
	return BatchItem(it.Win.View(j0*sx, 0, (n-1)*sx+bw, it.Win.H),
		Batch{N: int32(n), Sx: int32(sx), Bw: int32(bw)})
}
