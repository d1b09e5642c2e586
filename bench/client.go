package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blockpar/internal/serve"
)

// client is the load generator: one session driven by two goroutines
// on two connections — a feeder on POST /sessions/{id}/frames and a
// collector on POST /sessions/{id}/collect. Two is the reference box's
// core count; more client goroutines would measure the client's own
// contention for the cores it shares with the server.
type client struct {
	base string
	sid  string
	in   *inputs
	// feedHC and collHC each own a transport, so each keeps exactly one
	// keep-alive connection for the whole run.
	feedHC, collHC *http.Client

	// nextSeq is the session sequence number the next collected reply
	// must carry; it runs across phases because the server's does.
	nextSeq int64
	// fedSeq is the session sequence number of the next frame to feed.
	fedSeq int64

	mu        sync.Mutex // guards failed and failures during a phase
	attempted int64
	failed    int64
	failures  []string // first few failure descriptions, for stderr

	// trace, when set, receives the client-side timestamps of the
	// frames it is armed for.
	trace *tracer
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}
}

// openClient opens one session on the workload's pipeline with the
// server's default frame queue.
func openClient(s *system, in *inputs, tr *tracer) (*client, error) {
	c := &client{base: s.base, in: in, feedHC: newHTTPClient(), collHC: newHTTPClient(), trace: tr}
	body, _ := json.Marshal(map[string]string{"pipeline": s.wl.app})
	resp, err := c.feedHC.Post(c.base+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("open session: HTTP %d: %s", resp.StatusCode, data)
	}
	var opened struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(data, &opened); err != nil {
		return nil, err
	}
	c.sid = opened.Session
	return c, nil
}

// close deletes the session and drops both connections.
func (c *client) close() {
	req, _ := http.NewRequest(http.MethodDelete, c.base+"/sessions/"+c.sid, nil)
	if resp, err := c.feedHC.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	c.feedHC.CloseIdleConnections()
	c.collHC.CloseIdleConnections()
}

// post sends one request; on traced runs it carries the frame's
// sequence number so the middleware can file its stamps.
func (c *client) post(hc *http.Client, url string, body io.Reader, seq int64) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.trace != nil {
		req.Header.Set(seqHeader, strconv.FormatInt(seq, 10))
	}
	return hc.Do(req)
}

func (c *client) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// phase describes one measured stretch of the session.
type phase struct {
	// frames bounds the phase by count (warm-up); zero bounds it by dur.
	frames int
	dur    time.Duration
	// rate > 0 makes the phase open-loop: frame i is due at
	// start + i/rate whatever the server does, and its latency runs
	// from that due time. Zero is closed-loop: feed as fast as the
	// server accepts.
	rate float64
	// stop, if set, bounds the phase instead of frames and dur: the
	// feeder keeps its schedule until someone sets it.
	stop *atomic.Bool
	// tick, if set, runs on the collector after every collected reply
	// with the replies so far and the time since the phase began; the
	// traced run switches its wrappers between slices with it.
	tick func(collected int, elapsed time.Duration)
}

// phaseResult is what one phase measured, per frame.
type phaseResult struct {
	elapsed time.Duration
	// doneAt[i] is when frame i's reply had been read, since the start.
	doneAt []time.Duration
	// latencyMS[i] runs from frame i's due time (open loop) or first
	// send attempt (closed loop) to doneAt[i].
	latencyMS []float64
	// lagMS[i] is how late the feeder started sending frame i (open
	// loop only).
	lagMS     []float64
	n429      int64
	reqBytes  int64
	respBytes int64
	decodeUS  []float64
}

// collectTimeout bounds one collect request; a frame slower than this
// is counted as failed and ends the phase.
const collectTimeout = 20 * time.Second

// run executes one phase: feeder and collector run concurrently until
// the phase's frames are all collected. HTTP 429 from the feed endpoint
// is backpressure — wait for the next collected reply, retry — and is
// counted, not failed. Anything else unexpected fails the frame and
// ends the phase early, so a broken server cannot hang the benchmark.
func (c *client) run(ph phase) *phaseResult {
	res := &phaseResult{}
	failedBefore := c.failed
	var (
		mu        sync.Mutex // guards sentAt
		sentAt    []time.Time
		fed       atomic.Int64
		collected atomic.Int64
		feedDone  atomic.Bool
		abort     atomic.Bool
		n429      atomic.Int64
		reqBytes  atomic.Int64
		fedSig    = make(chan struct{}, 1)
		colSig    = make(chan struct{}, 1)
		lags      []float64
	)
	poke := func(ch chan struct{}) {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	// Exactly one of three things ends the feeder: a frame count (the
	// warm-up, or an open loop's rate × duration, at least one frame),
	// the stop flag, or — closed loop only — the clock.
	limit := ph.frames
	if ph.rate > 0 && ph.stop == nil {
		limit = max(1, int(ph.rate*ph.dur.Seconds()))
	}
	timed := limit == 0 && ph.stop == nil
	feedURL := c.base + "/sessions/" + c.sid + "/frames"
	collURL := c.base + "/sessions/" + c.sid + "/collect?timeout=" + collectTimeout.String()
	start := time.Now()
	deadline := start.Add(ph.dur)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // feeder
		defer wg.Done()
		defer func() { feedDone.Store(true); poke(fedSig) }()
		var sink bytes.Buffer
		for i := 0; !abort.Load(); i++ {
			if limit > 0 && i >= limit || ph.stop != nil && ph.stop.Load() {
				return
			}
			t0 := time.Now()
			if ph.rate > 0 {
				due := start.Add(time.Duration(float64(i) / ph.rate * float64(time.Second)))
				if d := due.Sub(t0); d > 0 {
					time.Sleep(d)
				}
				lags = append(lags, float64(time.Since(due).Nanoseconds())/1e6)
				t0 = due
			} else if timed && !t0.Before(deadline) {
				return
			}
			mu.Lock()
			sentAt = append(sentAt, t0)
			mu.Unlock()
			seq := c.fedSeq
			body := c.in.bodies[seq%frameCycle]
			accepted := false
			for !accepted && !abort.Load() {
				var rd io.Reader = http.NoBody
				if len(body) > 0 {
					rd = bytes.NewReader(body)
				}
				sendStart := time.Now()
				resp, err := c.post(c.feedHC, feedURL, rd, seq)
				if err != nil {
					abort.Store(true)
					c.fail("feed %d: %v", seq, err)
					return
				}
				sink.Reset()
				sink.ReadFrom(resp.Body)
				resp.Body.Close()
				reqBytes.Add(int64(len(body)))
				if resp.StatusCode == http.StatusAccepted {
					c.trace.mark(seq, tsClientFeedStart, sendStart)
					c.trace.mark(seq, tsClientFeedEnd, time.Now())
					accepted = true
					continue
				}
				if resp.StatusCode != http.StatusTooManyRequests {
					abort.Store(true)
					c.fail("feed %d: HTTP %d: %s", seq, resp.StatusCode, bytes.TrimSpace(sink.Bytes()))
					return
				}
				n429.Add(1)
				// Backpressure: a slot frees when a reply is collected.
				// The timer covers the server refusing with nothing in
				// flight (a partition mid-recovery does that).
				select {
				case <-colSig:
				case <-time.After(2 * time.Millisecond):
				}
			}
			if !accepted {
				return // the collector aborted the phase mid-retry
			}
			c.fedSeq++
			fed.Add(1)
			poke(fedSig)
		}
	}()

	// collector, on this goroutine
	var buf bytes.Buffer
	for {
		if collected.Load() == fed.Load() {
			if feedDone.Load() && collected.Load() == fed.Load() {
				break
			}
			select {
			case <-fedSig:
			case <-time.After(50 * time.Millisecond):
			}
			continue
		}
		collStart := time.Now()
		resp, err := c.post(c.collHC, collURL, http.NoBody, c.nextSeq)
		if err != nil {
			abort.Store(true)
			c.fail("collect %d: %v", c.nextSeq, err)
			break
		}
		buf.Reset()
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		now := time.Now()
		if resp.StatusCode != http.StatusOK {
			abort.Store(true)
			c.fail("collect %d: HTTP %d: %s", c.nextSeq, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
			break
		}
		res.respBytes += int64(buf.Len())
		i := collected.Load()
		seq := c.nextSeq
		if us, ok := c.checkReply(buf.Bytes(), seq); ok && us > 0 {
			res.decodeUS = append(res.decodeUS, us)
		}
		c.trace.mark(seq, tsClientCollStart, collStart)
		c.trace.mark(seq, tsClientCollEnd, now)
		c.nextSeq++
		mu.Lock()
		t0 := sentAt[i]
		mu.Unlock()
		res.doneAt = append(res.doneAt, now.Sub(start))
		res.latencyMS = append(res.latencyMS, float64(now.Sub(t0).Nanoseconds())/1e6)
		collected.Add(1)
		poke(colSig)
		if ph.tick != nil {
			ph.tick(int(collected.Load()), now.Sub(start))
		}
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.lagMS = lags
	res.n429 = n429.Load()
	res.reqBytes = reqBytes.Load()
	// Every frame the feeder began counts as attempted; those fed but
	// never collected (the phase aborted) are failures too.
	c.attempted += int64(len(sentAt))
	if lost := int64(len(sentAt)) - collected.Load(); c.failed-failedBefore < lost {
		c.failed = failedBefore + lost
	}
	return res
}

// replyPrefix is how the server's collect reply begins: encoding/json
// writes map keys sorted, and "frame" sorts first.
var replyPrefix = []byte(`{"frame":`)

// replySeq reads the frame number off the front of a reply without
// decoding the (possibly 100 KB) outputs behind it.
func replySeq(data []byte) (int64, bool) {
	if !bytes.HasPrefix(data, replyPrefix) {
		return 0, false
	}
	rest := data[len(replyPrefix):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, false
	}
	n, err := strconv.ParseInt(string(bytes.TrimSpace(rest[:end])), 10, 64)
	return n, err == nil
}

type collectReply struct {
	Frame   int64                         `json:"frame"`
	Outputs map[string][]serve.WindowJSON `json:"outputs"`
}

// checkReply verifies one reply: its sequence number always (a gap or
// a duplicate is a lost or repeated frame), its outputs against the
// golden on the fixed 1-in-8 sample. It returns the decode time of a
// sampled reply in microseconds.
func (c *client) checkReply(data []byte, want int64) (decodeUS float64, ok bool) {
	sampled := want%sampleEvery == 0
	seq, fast := replySeq(data)
	var reply collectReply
	if sampled || !fast {
		start := time.Now()
		if err := json.Unmarshal(data, &reply); err != nil {
			c.fail("collect %d: undecodable reply: %v", want, err)
			return 0, false
		}
		decodeUS = float64(time.Since(start).Nanoseconds()) / 1e3
		seq = reply.Frame
	}
	if seq != want {
		c.fail("collect: got frame %d, want %d (lost or duplicated)", seq, want)
		return 0, false
	}
	if sampled && !sameOutputs(reply.Outputs, c.in.goldens[want%frameCycle]) {
		c.fail("frame %d: outputs differ from the batch runtime's golden", want)
		return 0, false
	}
	return decodeUS, sampled
}
