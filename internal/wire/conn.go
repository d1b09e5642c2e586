package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// crcTable is the Castagnoli polynomial used for the per-frame
// integrity trailer. CRC32C has hardware support on both amd64 and
// arm64, so the trailer costs well under the price of the copy into
// the write buffer.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcSize is the length of the integrity trailer appended to every
// frame body.
const crcSize = 4

// Conn frames messages over a byte stream. Reads must stay on one
// goroutine; writes are serialized internally, so any number of
// goroutines may send.
//
// The connection owns every buffer a frame passes through: one read
// buffer grown to the largest frame seen, one encode scratch buffer and
// the bufio pair. A decoded message never aliases the read buffer —
// strings, descriptor bytes and window samples are all copied out (the
// samples into arena storage, an EdgeFrame's items into its slab) — so
// the next Read may overwrite it. A steady-state connection allocates
// only the message structs, and an EdgeFrame's not even that: received
// frames are recycled by EdgeFrame.Release.
type Conn struct {
	c    net.Conn
	br   *bufio.Reader
	rhdr [4]byte
	rbuf []byte
	rd   reader

	wmu  sync.Mutex
	bw   *bufio.Writer
	wbuf []byte
	werr error
	// waiters counts writers blocked on (or about to take) wmu. A writer
	// that sees one leaves its bytes in bw for the next writer to flush.
	waiters atomic.Int32
	flushes atomic.Int64
}

// NewConn wraps an established connection.
func NewConn(c net.Conn) *Conn {
	cn := &Conn{c: c, br: bufio.NewReaderSize(c, 1<<16)}
	cn.bw = bufio.NewWriterSize(flushCounter{cn}, 1<<16)
	return cn
}

// flushCounter counts the writes that reach the underlying connection:
// one per flush, plus any frame too large for the write buffer.
type flushCounter struct{ c *Conn }

func (f flushCounter) Write(p []byte) (int, error) {
	f.c.flushes.Add(1)
	return f.c.c.Write(p)
}

// Flushes reports how many writes this connection has issued to the
// underlying stream — under load, fewer than the messages sent.
func (c *Conn) Flushes() int64 { return c.flushes.Load() }

// Write encodes the messages in order, as one frame each, and flushes
// them unless another writer is already waiting for the connection, in
// which case that writer's flush carries them too: a caller's batch and
// concurrent senders share a syscall, while a lone write on an idle
// connection still goes out before Write returns. Whoever finds nobody
// waiting behind them flushes everything buffered, so no frame is ever
// left behind. Encoding stops at the first message that fails; the
// frames before it are still sent. After the first write error the
// connection is poisoned and every subsequent Write fails fast.
func (c *Conn) Write(ms ...Msg) error {
	c.waiters.Add(1)
	c.wmu.Lock()
	c.waiters.Add(-1)
	defer c.wmu.Unlock()
	if c.werr != nil {
		return c.werr
	}
	var err error
	for _, m := range ms {
		if err = c.encode(m); err != nil {
			break
		}
	}
	// Flush on every path, an unencodable message's too: an earlier
	// writer may have left its frame to this one.
	if c.werr == nil && c.bw.Buffered() > 0 && c.waiters.Load() == 0 {
		if ferr := c.bw.Flush(); ferr != nil {
			c.werr = ferr
			if err == nil {
				err = ferr
			}
		}
	}
	return err
}

// encode appends m's frame to the write buffer. Caller holds wmu.
func (c *Conn) encode(m Msg) error {
	// An unencodable message fails its own Write with nothing on the
	// wire; the connection stays healthy.
	if err := checkEncodable(m); err != nil {
		return err
	}
	c.wbuf = Append(c.wbuf[:0], m)
	if len(c.wbuf) > MaxFrame {
		return fmt.Errorf("wire: outgoing %s frame of %d bytes exceeds MaxFrame", m.Type(), len(c.wbuf))
	}
	// Seal the frame with a CRC32C trailer over type+payload and grow
	// the length prefix to cover it, so a flipped bit anywhere past the
	// header is caught by the peer instead of decoding into garbage
	// samples.
	sum := crc32.Checksum(c.wbuf[4:], crcTable)
	c.wbuf = appendU32(c.wbuf, sum)
	binary.BigEndian.PutUint32(c.wbuf[:4], uint32(len(c.wbuf)-4))
	// Keep every write to the stream a whole number of frames: a frame
	// that does not fit behind what is already buffered goes out after
	// it, never split across two writes. A dropped or delayed write (a
	// lossy link, the fault injector) then loses frames, not framing.
	if len(c.wbuf) > c.bw.Available() && c.bw.Buffered() > 0 {
		if err := c.bw.Flush(); err != nil {
			c.werr = err
			return err
		}
	}
	if _, err := c.bw.Write(c.wbuf); err != nil {
		c.werr = err
		return err
	}
	return nil
}

// Read blocks for the next frame and decodes it. An oversized or
// undecodable frame returns an ErrCorrupt-tagged error; the caller
// should close the connection, since framing is lost.
func (c *Conn) Read() (Msg, error) {
	if _, err := io.ReadFull(c.br, c.rhdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(c.rhdr[:])
	if n < 1+crcSize || n > MaxFrame+crcSize {
		return nil, corruptf("frame length %d out of range", n)
	}
	if uint32(cap(c.rbuf)) < n {
		c.rbuf = make([]byte, n)
	}
	body := c.rbuf[:n]
	if _, err := io.ReadFull(c.br, body); err != nil {
		return nil, fmt.Errorf("wire: short frame body: %w", err)
	}
	payload, trailer := body[:n-crcSize], body[n-crcSize:]
	if got, want := crc32.Checksum(payload, crcTable), binary.BigEndian.Uint32(trailer); got != want {
		return nil, corruptf("frame checksum mismatch: computed %08x, trailer %08x", got, want)
	}
	return decode(&c.rd, MsgType(payload[0]), payload[1:])
}

// SetReadDeadline bounds the next Read.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.c.SetReadDeadline(t) }

// Close closes the underlying connection; a blocked Read unblocks with
// an error.
func (c *Conn) Close() error { return c.c.Close() }

// RemoteAddr names the peer, for diagnostics.
func (c *Conn) RemoteAddr() string {
	if a := c.c.RemoteAddr(); a != nil {
		return a.String()
	}
	return "?"
}

// Handshake runs the client side: send Hello, require a matching
// Welcome.
func (c *Conn) Handshake() (*Welcome, error) {
	if err := c.Write(&Hello{Version: Version}); err != nil {
		return nil, fmt.Errorf("wire: handshake send: %w", err)
	}
	m, err := c.Read()
	if err != nil {
		return nil, fmt.Errorf("wire: handshake read: %w", err)
	}
	switch w := m.(type) {
	case *Welcome:
		if w.Version != Version {
			return nil, fmt.Errorf("wire: peer speaks version %d, want %d", w.Version, Version)
		}
		return w, nil
	case *Error:
		return nil, fmt.Errorf("wire: handshake refused: %s", w.Msg)
	default:
		return nil, corruptf("handshake answered with %s", m.Type())
	}
}

// AcceptHandshake runs the server side: require a version-matched
// Hello, then answer with a Welcome naming the worker and its
// pipelines.
func (c *Conn) AcceptHandshake(worker string, pipelines []string) error {
	m, err := c.Read()
	if err != nil {
		return fmt.Errorf("wire: handshake read: %w", err)
	}
	h, ok := m.(*Hello)
	if !ok {
		return corruptf("connection opened with %s, want hello", m.Type())
	}
	if h.Version != Version {
		c.Write(&Error{Msg: fmt.Sprintf("protocol version %d unsupported, want %d", h.Version, Version)})
		return fmt.Errorf("wire: peer speaks version %d, want %d", h.Version, Version)
	}
	return c.Write(&Welcome{Version: Version, Worker: worker, Pipelines: pipelines})
}
