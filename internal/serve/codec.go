package serve

// The edge codec: the one implementation of the JSON frame format the
// HTTP surface speaks. The encoder appends a collected frame's typed
// windows straight into a byte buffer; the parser reads a request body
// straight into windows of the declared element kind. Neither goes
// through reflection or a []float64 staging copy, and both reproduce
// encoding/json's observable behaviour — the bytes it would have
// written for the reply, the bodies it would have accepted — so that
// replacing it changed nothing a client can see. WindowJSON's
// MarshalJSON/UnmarshalJSON delegate here, which keeps Go clients on
// the same sample formatting, validation and kind handling.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"blockpar/internal/frame"
)

// ---- pooled buffers ----

// maxPooledBuf bounds what the pool retains: a buffer that grew past it
// for one outsized frame is dropped instead of pinning its memory.
const maxPooledBuf = 4 << 20

// bufPool recycles request-body and reply buffers. A buffer goes back
// only once nothing reads it any more: after Write returned for a
// reply, after the parser returned for a body (parsed windows and names
// are copies, never views of the body).
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

// putBuf returns a buffer to the pool; b is the slice it has grown to.
func putBuf(buf *[]byte, b []byte) {
	if cap(b) > maxPooledBuf {
		return
	}
	*buf = b[:0]
	bufPool.Put(buf)
}

// ---- encoder ----

const (
	hexDigits  = "0123456789abcdef"
	digitPairs = "00010203040506070809" +
		"10111213141516171819" +
		"20212223242526272829" +
		"30313233343536373839" +
		"40414243444546474849" +
		"50515253545556575859" +
		"60616263646566676869" +
		"70717273747576777879" +
		"80818283848586878889" +
		"90919293949596979899"
)

// appendU8 appends the decimal form of one byte sample.
func appendU8(b []byte, v uint8) []byte {
	switch {
	case v < 10:
		return append(b, '0'+v)
	case v < 100:
		return append(b, digitPairs[2*v], digitPairs[2*v+1])
	}
	h := v / 100
	v -= 100 * h
	return append(b, '0'+h, digitPairs[2*v], digitPairs[2*v+1])
}

// appendFloat appends f the way encoding/json writes a float64: the
// shortest decimal that round-trips, 'f' format except 'e' below 1e-6
// and from 1e21 with the exponent's leading zero dropped. Integral
// values (the common sample) skip the shortest-float search. It reports
// false, appending nothing, for NaN and ±Inf, which JSON cannot carry.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if -1e15 < f && f < 1e15 {
		if i := int64(f); float64(i) == f {
			if i == 0 && math.Signbit(f) {
				return append(b, '-', '0'), true
			}
			return strconv.AppendInt(b, i, 10), true
		}
	} else if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json cleans it up.
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendFloats appends each sample of row followed by a comma. It stops
// at a non-finite sample and returns its index, -1 when there was none.
func appendFloats[T float32 | float64](b []byte, row []T) ([]byte, int) {
	for x, v := range row {
		var ok bool
		if b, ok = appendFloat(b, float64(v)); !ok {
			return b, x
		}
		b = append(b, ',')
	}
	return b, -1
}

// appendString appends s as a JSON string literal with encoding/json's
// default escaping: quote, backslash and control characters, the HTML
// trio <, >, &, U+2028/U+2029, and U+FFFD for invalid UTF-8.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// openWindow appends a window object up to and including the opening
// bracket of its samples; the kind tag is omitted when empty (f64).
func openWindow(b []byte, w, h int, kind string) []byte {
	b = append(b, `{"w":`...)
	b = strconv.AppendInt(b, int64(w), 10)
	b = append(b, `,"h":`...)
	b = strconv.AppendInt(b, int64(h), 10)
	if kind != "" {
		b = append(b, `,"kind":`...)
		b = appendString(b, kind)
	}
	return append(b, `,"pix":[`...)
}

// closeWindow ends the object openWindow began. Samples are appended
// each with a trailing comma; pix is where they started, so the last
// comma (if any sample was written) becomes the closing bracket.
func closeWindow(b []byte, pix int) []byte {
	if len(b) > pix {
		b[len(b)-1] = ']'
	} else {
		b = append(b, ']')
	}
	return append(b, '}')
}

// header is the object header a reply last wrote for a window shape:
// b[start:end] holds `{"w":…,"h":…,"kind":…,"pix":[` for W×H windows of
// kind k. A window of the same shape copies those bytes instead of
// formatting them again, so a run of equal windows (app 1's 2,139 quads)
// pays for one header. end is zero until a header is written.
type header struct {
	w, h       int
	k          frame.Kind
	start, end int
}

// appendWindow appends w's wire form, walking its rows in place so a
// strided view needs no dense copy. hd is the reply's last header,
// reused when w has its shape and replaced when it does not. A
// non-finite sample stops the walk: bad is its row-major index, -1 when
// the whole window was written.
func appendWindow(b []byte, w *frame.Window, hd *header) (_ []byte, bad int) {
	if hd.end > 0 && w.W == hd.w && w.H == hd.h && w.Kind == hd.k {
		b = append(b, b[hd.start:hd.end]...)
	} else {
		kind := ""
		if w.Kind != frame.F64 {
			kind = w.Kind.String()
		}
		start := len(b)
		b = openWindow(b, w.W, w.H, kind)
		*hd = header{w: w.W, h: w.H, k: w.Kind, start: start, end: len(b)}
	}
	pix := len(b)
	for y := 0; y < w.H; y++ {
		x := -1
		switch w.Kind {
		case frame.U8:
			for _, v := range w.RowU8(y) {
				b = append(appendU8(b, v), ',')
			}
		case frame.F32:
			b, x = appendFloats(b, w.RowF32(y))
		default:
			b, x = appendFloats(b, w.Row(y))
		}
		if x >= 0 {
			return b, y*w.W + x
		}
	}
	return closeWindow(b, pix), -1
}

// appendReply appends the collect reply — {"frame":…,"latency_ms":…,
// "outputs":{name:[window,…]}} and a newline, output names sorted —
// byte for byte what encoding/json wrote for the same map.
func appendReply(b []byte, seq int64, latencyMS float64, outs map[string][]frame.Window) ([]byte, error) {
	var stack [8]string // no allocation for the usual handful of outputs
	names := stack[:0]
	for name := range outs {
		names = append(names, name)
	}
	slices.Sort(names)

	b = append(b, `{"frame":`...)
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, `,"latency_ms":`...)
	b, _ = appendFloat(b, latencyMS) // a duration: always finite
	b = append(b, `,"outputs":{`...)
	var hd header
	for i, name := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, name)
		b = append(b, ':', '[')
		ws := outs[name]
		for k := range ws {
			if k > 0 {
				b = append(b, ',')
			}
			var bad int
			if b, bad = appendWindow(b, &ws[k], &hd); bad >= 0 {
				w := &ws[k]
				return b, fmt.Errorf("output %q window %d sample %d is %v, which JSON cannot carry",
					name, k, bad, w.At(bad%w.W, bad/w.W))
			}
		}
		b = append(b, ']')
	}
	return append(b, '}', '}', '\n'), nil
}

// appendFeedAck appends the 202 reply of POST /sessions/{id}/frames.
func appendFeedAck(b []byte, seq, inFlight int64) []byte {
	b = append(b, `{"frame":`...)
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, `,"inFlight":`...)
	b = strconv.AppendInt(b, inFlight, 10)
	return append(b, '}', '\n')
}

// appendError appends the error reply every non-2xx status carries.
func appendError(b []byte, msg string) []byte {
	b = append(b, `{"error":`...)
	b = appendString(b, msg)
	return append(b, '}', '\n')
}

// ---- parser ----

// maxDepth is encoding/json's nesting limit; deeper documents are
// rejected, which also bounds the parser's recursion.
const maxDepth = 10000

// parser is a single-pass reader of the request grammar
//
//	{"inputs": {name: {"w": int, "h": int, "kind": string, "pix": [number…]}}}
//
// with encoding/json's rules for everything a client can observe: any
// whitespace and key order, keys matched case-insensitively, unknown
// keys skipped (but still syntax-checked), duplicate keys resolved last
// wins, null leaving a field at its zero value, a number that does not
// fit its field refused.
type parser struct {
	b     []byte
	i     int
	depth int

	inputs map[string]frame.Window
	// bad holds, per input name, why its latest window is unusable. It
	// is reported only after the whole body parsed, so a later duplicate
	// of the name can still replace the window, as it always could.
	bad map[string]error
}

// bstr views b as a string without copying. Only for callees that do
// not retain their argument (the strconv parsers copy it into their
// errors): b is a pooled request buffer.
func bstr(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

func (p *parser) peek() byte {
	if p.i < len(p.b) {
		return p.b[p.i]
	}
	return 0
}

func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

// want reports that the input at the cursor is not what the grammar
// needs there.
func (p *parser) want(what string) error {
	if p.i >= len(p.b) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("offset %d: found %q, want %s", p.i, p.b[p.i], what)
}

func (p *parser) lit(s string) error {
	if end := p.i + len(s); end > len(p.b) || string(p.b[p.i:end]) != s {
		return p.want(s)
	}
	p.i += len(s)
	return nil
}

// open consumes the bracket of an object or array.
func (p *parser) open() error {
	if p.depth++; p.depth > maxDepth {
		return fmt.Errorf("offset %d: exceeded max depth", p.i)
	}
	p.i++
	return nil
}

// key advances to the next member of the object being read (first: its
// brace was just consumed) and returns the member's raw key with the
// cursor on its value; more is false once the closing brace is consumed.
func (p *parser) key(first bool) (raw []byte, esc, more bool, err error) {
	p.ws()
	switch c := p.peek(); {
	case c == '}':
		p.i++
		p.depth--
		return nil, false, false, nil
	case first:
	case c == ',':
		p.i++
		p.ws()
	default:
		return nil, false, false, p.want("',' or '}'")
	}
	if p.peek() != '"' {
		return nil, false, false, p.want("an object key")
	}
	if raw, esc, err = p.str(); err != nil {
		return nil, false, false, err
	}
	p.ws()
	if p.peek() != ':' {
		return nil, false, false, p.want("':'")
	}
	p.i++
	p.ws()
	return raw, esc, true, nil
}

// elem advances to the next element of the array being read (first: its
// bracket was just consumed); false once the closing bracket is consumed.
func (p *parser) elem(first bool) (bool, error) {
	p.ws()
	switch c := p.peek(); {
	case c == ']':
		p.i++
		p.depth--
		return false, nil
	case first:
	case c == ',':
		p.i++
		p.ws()
	default:
		return false, p.want("',' or ']'")
	}
	return true, nil
}

// str scans the string literal at the cursor and returns its contents
// between the quotes, unprocessed; esc says it contains a backslash.
func (p *parser) str() (raw []byte, esc bool, err error) {
	b := p.b
	start := p.i + 1
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			p.i = i + 1
			return b[start:i], esc, nil
		case c == '\\':
			esc = true
			if i++; i >= len(b) {
				break
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(b) || hexVal(b[i+k]) < 0 {
						p.i = min(i+k, len(b))
						return nil, false, p.want("a hexadecimal digit")
					}
				}
				i += 4
			default:
				p.i = i
				return nil, false, p.want("a string escape")
			}
		case c < 0x20:
			p.i = i
			return nil, false, p.want("a string character")
		}
	}
	p.i = len(b)
	return nil, false, p.want("'\"'")
}

func hexVal(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// hex4 decodes the \uXXXX escape at the front of s (already validated
// by str), or -1 if s does not start with one.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	return rune(hexVal(s[2])<<12 | hexVal(s[3])<<8 | hexVal(s[4])<<4 | hexVal(s[5]))
}

// unquote appends the value of the string literal contents raw (as
// returned by str) to dst: escapes resolved, a surrogate pair joined, a
// lone surrogate or invalid UTF-8 replaced by U+FFFD.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch c = raw[i+1]; c {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i:])
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, hex4(raw[i+6:])); pair != unicode.ReplacementChar {
						r = pair
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				dst = utf8.AppendRune(dst, r)
				i += 4
			default: // '"', '\\', '/'
				dst = append(dst, c)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// unquoted returns the value of a scanned string for matching: raw
// itself unless it has escapes, which are resolved into scratch.
func unquoted(scratch, raw []byte, esc bool) []byte {
	if !esc {
		return raw
	}
	return unquote(scratch[:0], raw)
}

// keyIs reports whether an object key selects the field called name
// (lower-case ASCII) by encoding/json's rule: equal under Unicode simple
// case folding. For an ASCII name that is ASCII case-insensitivity plus
// the two other runes that fold onto ASCII letters, U+212A KELVIN SIGN
// (k) and U+017F LONG S (s).
func keyIs(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		if j == len(name) {
			return false
		}
		c := key[i]
		switch {
		case c < utf8.RuneSelf:
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			i++
		case c == 0xE2 && i+2 < len(key) && key[i+1] == 0x84 && key[i+2] == 0xAA: // U+212A
			c = 'k'
			i += 3
		case c == 0xC5 && i+1 < len(key) && key[i+1] == 0xBF: // U+017F
			c = 's'
			i += 2
		default:
			return false
		}
		if c != name[j] {
			return false
		}
	}
	return j == len(name)
}

func isDigit(c byte) bool { return c-'0' <= 9 }

// number scans the JSON number at the cursor; integral says it has
// neither fraction nor exponent.
func (p *parser) number() (tok []byte, integral bool, err error) {
	b, start := p.b, p.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = digitsEnd(b, i); i == start || b[i-1] == '-' {
		p.i = i
		return nil, false, p.want("a number")
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		integral = false
		from := i + 1
		if i = digitsEnd(b, from); i == from {
			p.i = i
			return nil, false, p.want("a digit")
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		integral = false
		from := i + 1
		if from < len(b) && (b[from] == '+' || b[from] == '-') {
			from++
		}
		if i = digitsEnd(b, from); i == from {
			p.i = i
			return nil, false, p.want("a digit")
		}
	}
	p.i = i
	return b[start:i], integral, nil
}

// digitsEnd returns the end of the run of decimal digits starting at i.
func digitsEnd(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// skip reads past one value of any type, checking its syntax.
func (p *parser) skip() error {
	switch c := p.peek(); {
	case c == '{':
		if err := p.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, _, more, err := p.key(first)
			if err != nil || !more {
				return err
			}
			if err := p.skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := p.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := p.elem(first)
			if err != nil || !more {
				return err
			}
			if err := p.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, _, err := p.str()
		return err
	case c == 't':
		return p.lit("true")
	case c == 'f':
		return p.lit("false")
	case c == 'n':
		return p.lit("null")
	case c == '-' || isDigit(c):
		_, _, err := p.number()
		return err
	}
	return p.want("a value")
}

// sample reads one element of a pix array: a number in float64 range,
// or null, which reads as 0.
func (p *parser) sample() (float64, error) {
	if p.peek() == 'n' {
		return 0, p.lit("null")
	}
	tok, integral, err := p.number()
	if err != nil {
		return 0, err
	}
	if integral && len(tok) <= 15 { // below 1e15: exact without strconv
		digits := tok
		if tok[0] == '-' {
			digits = tok[1:]
		}
		var u uint64
		for _, d := range digits {
			u = u*10 + uint64(d-'0')
		}
		if tok[0] == '-' {
			return -float64(u), nil
		}
		return float64(u), nil
	}
	f, err := strconv.ParseFloat(bstr(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("offset %d: number %s does not fit a float64", p.i-len(tok), tok)
	}
	return f, nil
}

// parseRow fills one row of an f32 or f64 window from the array whose
// next element the cursor is on. It returns how many samples it stored
// and whether the array continues past them.
func parseRow[T float32 | float64](p *parser, row []T) (n int, more bool, err error) {
	for x := range row {
		v, err := p.sample()
		if err != nil {
			return x, false, err
		}
		row[x] = T(v)
		if more, err := p.elem(false); err != nil || !more {
			return x + 1, false, err
		}
	}
	return len(row), true, nil
}

// parseRowU8 is parseRow for row y of a u8 window. One to three bare
// digits — what a byte sample looks like — are stored directly;
// anything else goes through sample and Window.Set, the data plane's
// one narrowing rule (clamp to [0,255], round half away from zero).
func parseRowU8(p *parser, win *frame.Window, y int) (n int, more bool, err error) {
	row := win.RowU8(y)
	for x := range row {
		b, i := p.b, p.i
		var v uint
		j := i
		for j < len(b) && j < i+3 && isDigit(b[j]) {
			v = v*10 + uint(b[j]-'0')
			j++
		}
		if j > i && j < len(b) && (b[i] != '0' || j == i+1) &&
			!isDigit(b[j]) && b[j] != '.' && b[j]|0x20 != 'e' {
			row[x] = uint8(min(v, 255))
			p.i = j
		} else {
			f, err := p.sample()
			if err != nil {
				return x, false, err
			}
			win.Set(x, y, f)
		}
		if more, err := p.elem(false); err != nil || !more {
			return x + 1, false, err
		}
	}
	return len(row), true, nil
}

// samples reads the array at the cursor and returns its length. With a
// window, the first W·H samples are stored into it, narrowed to its
// kind; further ones, and all of them without a window, are only
// checked to be numbers.
func (p *parser) samples(dst *frame.Window) (n int, err error) {
	if err := p.open(); err != nil {
		return 0, err
	}
	more, err := p.elem(true)
	if dst != nil {
		for y := 0; y < dst.H && more && err == nil; y++ {
			var k int
			switch dst.Kind {
			case frame.U8:
				k, more, err = parseRowU8(p, dst, y)
			case frame.F32:
				k, more, err = parseRow(p, dst.RowF32(y))
			default:
				k, more, err = parseRow(p, dst.Row(y))
			}
			n += k
		}
	}
	for more && err == nil {
		if _, err = p.sample(); err == nil {
			n++
			more, err = p.elem(false)
		}
	}
	return n, err
}

// parseKind resolves a kind tag. The canonical names are matched in
// place; aliases and the error come from frame.ParseKind, whose
// argument escapes and so costs a copy.
func parseKind(tag []byte) (frame.Kind, error) {
	for k := frame.F64; k.Valid(); k++ {
		if string(tag) == k.String() {
			return k, nil
		}
	}
	return frame.ParseKind(string(tag))
}

// windowSamples returns w·h, and false for a negative dimension or a
// product that overflows.
func windowSamples(w, h int) (int, bool) {
	if w < 0 || h < 0 || h > 0 && w > math.MaxInt/h {
		return 0, false
	}
	return w * h, true
}

func shapeError(w, h, n int) error {
	if total, ok := windowSamples(w, h); ok {
		return fmt.Errorf("window %dx%d carries %d samples, want %d", w, h, n, total)
	}
	return fmt.Errorf("window size %dx%d out of range", w, h)
}

// intField reads a w or h value: an integer literal that fits an int,
// or null, which leaves the field alone.
func (p *parser) intField(dst *int) error {
	if p.peek() == 'n' {
		return p.lit("null")
	}
	if c := p.peek(); c != '-' && !isDigit(c) {
		return p.want("an integer")
	}
	tok, _, err := p.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(bstr(tok), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("offset %d: number %s is not an integer in range", p.i-len(tok), tok)
	}
	*dst = int(v)
	return nil
}

// window reads the window object at the cursor. Samples are written
// straight into a window of the declared kind and size when "pix"
// arrives after them (what every encoder emits); if a later key changes
// the declaration, the already-checked array is read again under the
// final one. Kind and shape faults are returned as invalid, apart from
// err, because they do not make the document malformed.
func (p *parser) window() (win frame.Window, invalid, err error) {
	var (
		w, h    int
		kind    frame.Kind
		kindErr error
		filled  bool // win holds the samples of the array at pixAt
		pixAt   = -1 // offset of the latest pix array, -1 for none
		n       int  // its length
		scratch [24]byte
	)
	if err := p.open(); err != nil {
		return win, nil, err
	}
	for first := true; ; first = false {
		raw, esc, more, err := p.key(first)
		if err != nil {
			return win, nil, err
		}
		if !more {
			break
		}
		switch key := unquoted(scratch[:], raw, esc); {
		case keyIs(key, "w"):
			err = p.intField(&w)
		case keyIs(key, "h"):
			err = p.intField(&h)
		case keyIs(key, "kind"):
			switch p.peek() {
			case 'n':
				err = p.lit("null")
			case '"':
				if raw, esc, err = p.str(); err == nil {
					kind, kindErr = parseKind(unquoted(scratch[:], raw, esc))
				}
			default:
				err = p.want("a string")
			}
		case keyIs(key, "pix"):
			switch p.peek() {
			case 'n':
				err = p.lit("null")
				pixAt, n, filled = -1, 0, false
			case '[':
				pixAt = p.i
				// Allocate only what the rest of the body can fill: n
				// samples take at least 2n+1 bytes.
				total, ok := windowSamples(w, h)
				filled = ok && kindErr == nil && total > 0 && total <= (len(p.b)-p.i-1)/2
				if !filled {
					n, err = p.samples(nil)
					break
				}
				if win.Kind != kind || win.W != w || win.H != h {
					win = frame.NewWindowKind(kind, w, h)
				}
				n, err = p.samples(&win)
			default:
				err = p.want("an array")
			}
		default:
			err = p.skip()
		}
		if err != nil {
			return win, nil, err
		}
	}
	if kindErr != nil {
		return win, kindErr, nil
	}
	total, ok := windowSamples(w, h)
	if !ok || n != total {
		return win, shapeError(w, h, n), nil
	}
	if filled && win.Kind == kind && win.W == w && win.H == h {
		return win, nil, nil
	}
	win = frame.NewWindowKind(kind, w, h)
	if pixAt >= 0 && total > 0 {
		again := parser{b: p.b, i: pixAt}
		again.samples(&win) // cannot fail: the same bytes passed above
	}
	return win, nil, nil
}

// inputsField reads the value of the top-level "inputs" key into
// p.inputs. A repeated key adds to the map; null empties it.
func (p *parser) inputsField() error {
	switch p.peek() {
	case 'n':
		p.inputs, p.bad = nil, nil
		return p.lit("null")
	case '{':
	default:
		return p.want("an object")
	}
	if err := p.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		raw, esc, more, err := p.key(first)
		if err != nil || !more {
			return err
		}
		var (
			win     frame.Window
			invalid error
		)
		switch p.peek() {
		case 'n':
			err = p.lit("null")
			win = frame.NewWindow(0, 0)
		case '{':
			win, invalid, err = p.window()
		default:
			err = p.want("an object")
		}
		if err != nil {
			return err
		}
		var name string
		if esc || !utf8.Valid(raw) {
			name = string(unquote(nil, raw))
		} else {
			name = string(raw)
		}
		if p.inputs == nil {
			p.inputs = make(map[string]frame.Window, 1)
		}
		p.inputs[name] = win
		if invalid != nil {
			if p.bad == nil {
				p.bad = make(map[string]error, 1)
			}
			p.bad[name] = invalid
		} else if p.bad != nil {
			delete(p.bad, name)
		}
	}
}

// end checks that only whitespace follows the top-level value.
func (p *parser) end() error {
	if p.ws(); p.i < len(p.b) {
		return p.want("the end of the body")
	}
	return nil
}

// parseFrameBody decodes a {"inputs": {name: window}} request body. No
// inputs at all (a null body, a missing, null or empty "inputs") is a
// nil map: the caller generates the frame from the pipeline's sources.
// The windows and names returned share nothing with body.
func parseFrameBody(body []byte) (map[string]frame.Window, error) {
	p := parser{b: body}
	p.ws()
	var err error
	switch p.peek() {
	case 'n':
		err = p.lit("null")
	case '{':
		err = p.open()
		for first := true; err == nil; first = false {
			var (
				raw       []byte
				esc, more bool
				scratch   [24]byte
			)
			if raw, esc, more, err = p.key(first); err != nil || !more {
				break
			}
			if keyIs(unquoted(scratch[:], raw, esc), "inputs") {
				err = p.inputsField()
			} else {
				err = p.skip()
			}
		}
	default:
		err = p.want("an object")
	}
	if err == nil {
		err = p.end()
	}
	if err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if len(p.bad) > 0 {
		names := make([]string, 0, len(p.bad))
		for name := range p.bad {
			names = append(names, name)
		}
		name := slices.Min(names)
		return nil, fmt.Errorf("input %q: %w", name, p.bad[name])
	}
	if len(p.inputs) == 0 {
		return nil, nil
	}
	return p.inputs, nil
}
