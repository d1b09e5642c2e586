package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"blockpar/internal/cluster"
	"blockpar/internal/frame"
)

// runConfig is one invocation: one workload, one seed, one of the two
// kinds of run.
type runConfig struct {
	wl   workload
	seed uint64
	// measure is the measured time, split evenly between the saturate
	// and paced phases.
	measure time.Duration
	// trace selects the traced run (per-layer metrics) over the gated
	// run (end-to-end metrics, every wrapper off).
	trace bool
	// warmup is the fixed number of frames pushed before measuring;
	// setups is how many times set-up is repeated for setup_s's median;
	// events is the recovery probe's kills and drains. Only the smoke
	// test shrinks them.
	warmup, setups, events int
	// isolate is the time budget of each isolated layer timing loop.
	isolate time.Duration
	// slices is how many stretches each gated phase runs as.
	slices int
	// traceDir receives the Chrome trace of a traced run; empty keeps
	// it in memory only.
	traceDir string
	log      io.Writer
}

// Phase structure. Saturate runs as twenty slices and reports their
// midmean, so a slow stretch (a long GC cycle, a noisy neighbour)
// cannot drag the figure; the issue's median of five slices was tried
// first and varied up to 1.5× as much from run to run on the reference
// box. Paced also runs as twenty stretches; its frames are then pooled
// in four windows and latency_p95_ms is the median of the windows' p95s
// (each window holds ≥225 samples, so ≥11 beyond): one stall, which
// would otherwise own the whole tail, moves one window. The traced run
// alternates wrappers off and on by slice, so both sides of
// trace.overhead_ratio see the same system at interleaved times.
const (
	gatedSlices  = 20
	pacedWindows = 4
	tracedSlices = 10
)

// windowP95 cuts the paced phase's frames into n equal runs in due
// order and returns the median of their 95th percentiles.
func windowP95(latencyMS []float64, n int) float64 {
	per := len(latencyMS) / n
	if per == 0 {
		return percentile(latencyMS, 0.95)
	}
	p95s := make([]float64, n)
	for i := range p95s {
		p95s[i] = percentile(latencyMS[i*per:(i+1)*per], 0.95)
	}
	return median(p95s)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	failures  []string
	detail    *detail
}

// detail is what a gated run measured before reducing and scaling it,
// kept in --out files for offline analysis: a statistic or a yardstick
// rule can be re-evaluated on old runs without repeating them.
type detail struct {
	// Slices is the saturate phase slice by slice, frames/s as measured.
	Slices []float64 `json:"slices"`
	// Raw holds each timing as measured and the factor it was scaled by.
	Raw map[string]float64 `json:"raw"`
	// YardstickMS holds every yardstick reading of each phase.
	YardstickMS map[string][]float64 `json:"yardstick_ms"`
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// usage is the process-wide cost snapshot taken around a phase. Client
// and server share the process, so these include the load generator;
// that share is constant across commits because bench/ is frozen for
// any change that claims a gain.
type usage struct {
	cpu  time.Duration
	mem  goruntime.MemStats
	pool frame.PoolStats
}

func snapshot() usage {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	goruntime.ReadMemStats(&u.mem)
	u.pool = frame.Stats()
	return u
}

// sliceRates cuts a closed-loop phase into n equal slices and returns
// each slice's completed frames per second.
func sliceRates(doneAt []time.Duration, total time.Duration, n int) []float64 {
	rates := make([]float64, n)
	width := total / time.Duration(n)
	for _, d := range doneAt {
		i := int(d / width)
		if i >= n {
			continue // replies drained after the phase's last slice
		}
		rates[i]++
	}
	for i := range rates {
		rates[i] /= width.Seconds()
	}
	return rates
}

// replayProbeFrame is the warm-up frame after which the session's
// retained replay log is read: early enough that no workload has spent
// its replay budget (after which the log is dropped and reads 0).
const replayProbeFrame = 100

// ready is a system brought to a steady state, and what that cost.
type ready struct {
	s       *system
	c       *client
	took    time.Duration // compile → warm-up done: setup_s
	openMS  float64       // POST /sessions
	replayB float64       // replay log bytes after replayProbeFrame frames
}

// setUp compiles, starts the fleet, opens the session and pushes the
// fixed warm-up.
func setUp(cfg runConfig, in *inputs, tr *tracer) (*ready, error) {
	start := time.Now()
	s, err := startSystem(cfg.wl, cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	openStart := time.Now()
	c, err := openClient(s, in, tr)
	if err != nil {
		s.stop()
		return nil, err
	}
	r := &ready{s: s, c: c, openMS: msSince(openStart)}
	ph := phase{frames: cfg.warmup}
	if tr != nil && s.disp != nil {
		ph.tick = func(n int, _ time.Duration) {
			if n == min(replayProbeFrame, cfg.warmup) {
				r.replayB = replayBytes(s.disp)
			}
		}
	}
	c.run(ph)
	r.took = time.Since(start)
	return r, nil
}

// tearDown closes the session and stops the system.
func (r *ready) tearDown() {
	r.c.close()
	r.s.stop()
}

func runWorkload(cfg runConfig) (*result, error) {
	res := &result{Metrics: make(map[string]metric)}
	// The goldens are the benchmark's work, not the system's: compute
	// them from a registry of their own, outside setup_s.
	_, p, err := compileRegistry(cfg.wl, cfg.seed)
	if err != nil {
		return nil, err
	}
	in, err := prepareInputs(cfg.wl, p, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		err = runTraced(cfg, in, res)
	} else {
		err = runGated(cfg, in, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// account folds a finished client's frame counts into the result.
func (r *result) account(c *client) {
	r.Attempted += c.attempted
	r.Failed += c.failed
	r.failures = append(r.failures, c.failures...)
}

// runGated measures the end-to-end metrics with the stack exactly as
// shipped: no wrapper is even installed. Both phases run as twenty
// short stretches with a yardstick reading between each pair, and every
// timing is scaled by the speed the box showed over its phase (see
// yardstick.go for why).
func runGated(cfg runConfig, in *inputs, res *result) error {
	var r *ready
	var setupS []float64
	readings := []time.Duration{yardstick()}
	for rep := 0; rep < cfg.setups; rep++ {
		if r != nil {
			res.account(r.c)
			r.tearDown()
		}
		var err error
		if r, err = setUp(cfg, in, nil); err != nil {
			return err
		}
		setupS = append(setupS, r.took.Seconds())
		readings = append(readings, yardstick())
	}
	defer r.tearDown()
	c := r.c
	setupScale := scale(readings)
	yard := map[string][]float64{"setup": msOf(readings)}

	width := cfg.measure / 2 / time.Duration(cfg.slices)
	readings = readings[len(readings)-1:]
	var fps, cpuMS []float64
	var frames, mallocs float64
	var n429 int64
	for i := 0; i < cfg.slices; i++ {
		before := snapshot()
		sat := c.run(phase{dur: width})
		after := snapshot()
		readings = append(readings, yardstick())
		n := float64(len(sat.doneAt))
		if n == 0 {
			continue // the slice failed; the failure is already counted
		}
		// Throughput counts the replies that arrived while the feeder was
		// still feeding; the few collected while the pipeline drained
		// afterwards still count towards CPU and allocations per frame.
		fps = append(fps, sliceRates(sat.doneAt, width, 1)[0])
		cpuMS = append(cpuMS, float64((after.cpu-before.cpu).Nanoseconds())/1e6/n)
		frames += n
		mallocs += float64(after.mem.Mallocs - before.mem.Mallocs)
		n429 += sat.n429
	}
	satScale := scale(readings)
	yard["saturate"] = msOf(readings)

	readings = readings[len(readings)-1:]
	var latency, lag []float64
	for i := 0; i < cfg.slices; i++ {
		paced := c.run(phase{rate: float64(cfg.wl.rateFPS), dur: width})
		readings = append(readings, yardstick())
		latency = append(latency, paced.latencyMS...)
		lag = append(lag, paced.lagMS...)
	}
	pacedScale := scale(readings)
	yard["paced"] = msOf(readings)
	res.account(c)
	if frames == 0 || len(latency) == 0 {
		return fmt.Errorf("no frames completed: %v", c.failures)
	}

	p50, p95 := median(latency), windowP95(latency, pacedWindows)
	res.detail = &detail{Slices: fps, YardstickMS: yard, Raw: map[string]float64{
		"setup_s": median(setupS), "frames_per_s": midmean(fps), "cpu_ms_per_frame": midmean(cpuMS),
		"latency_p50_ms": p50, "latency_p95_ms": p95,
		"setup_scale": setupScale, "saturate_scale": satScale, "paced_scale": pacedScale,
	}}
	res.set("setup_s", median(setupS)*setupScale, "s")
	res.set("frames_per_s", midmean(fps)/satScale, "1/s")
	res.set("latency_p50_ms", p50*pacedScale, "ms")
	res.set("latency_p95_ms", p95*pacedScale, "ms")
	res.set("cpu_ms_per_frame", midmean(cpuMS)*satScale, "ms")
	res.set("allocs_per_frame", mallocs/frames, "count")

	fmt.Fprintf(cfg.log, "%s seed %d, as measured (before scaling to the reference speed): setup %.3f s ×%.3f, saturate slices %.0f fps (429s %d) ÷%.3f, paced %d frames at %d fps: p50 %.3f ms p95 %.3f ms ×%.3f, lag p99 %.3f ms\n",
		cfg.wl.name, cfg.seed, setupS, setupScale, fps, n429, satScale, len(latency), cfg.wl.rateFPS,
		p50, p95, pacedScale, percentile(lag, 0.99))
	return nil
}

func msOf(ds []time.Duration) []float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	return ms
}

// tracedSlice says whether the wrappers are on in saturate slice i of a
// traced run: off, on, on, off, … so that a throughput that drifts over
// the phase (local_compute's does) weighs on both sides alike.
func tracedSlice(i int) bool { return i%4 == 1 || i%4 == 2 }

// clusterLive is what a traced stretch says about the cluster layer.
type clusterLive struct {
	tr         *tracer
	st         spanStats
	frames     int // replies collected while the wrappers were on
	creditsMax int
	openMS     float64
	replayB    float64
}

func (cl clusterLive) emit(res *result) {
	f := math.Max(float64(cl.frames), 1)
	res.set("cluster.feed_us", cl.st.backendFeedUS, "us")
	res.set("cluster.turnaround_us", cl.st.turnaroundUS, "us")
	res.set("cluster.conn_writes_per_frame", float64(cl.tr.connWrites.Load())/f, "count")
	res.set("cluster.conn_tx_bytes_per_frame", float64(cl.tr.txBytes.Load())/f, "B")
	res.set("cluster.conn_rx_bytes_per_frame", float64(cl.tr.rxBytes.Load())/f, "B")
	res.set("cluster.relay_bytes_per_frame", float64(cl.tr.relayBytes.Load())/f, "B")
	res.set("cluster.replay_bytes", cl.replayB, "B")
	res.set("cluster.credits_in_flight_max", float64(cl.creditsMax), "count")
	res.set("cluster.open_ms", cl.openMS, "ms")
}

// replayBytes reads the open session's retained replay log size.
func replayBytes(d *cluster.Dispatcher) float64 {
	stats, _ := d.BackendStats().(map[string]any)
	rows, _ := stats["sessions"].([]cluster.SessionStats)
	var total int64
	for _, r := range rows {
		total += r.ReplayBytes
	}
	return float64(total)
}

// watchCredits samples the dispatcher's per-worker credit gauge until
// stop is closed and returns the largest fleet-wide sum seen.
func watchCredits(d *cluster.Dispatcher, stop <-chan struct{}) int {
	worst := 0
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return worst
		case <-t.C:
			stats, _ := d.BackendStats().(map[string]any)
			rows, _ := stats["workers"].([]cluster.WorkerStats)
			sum := 0
			for _, r := range rows {
				sum += r.CreditsInFlight
			}
			worst = max(worst, sum)
		}
	}
}

// serverMetrics is the part of GET /metrics the benchmark reports.
type serverMetrics struct {
	Rejected  float64 `json:"rejected_429"`
	Pipelines map[string]struct {
		P50 float64 `json:"p50_ms"`
		P99 float64 `json:"p99_ms"`
	} `json:"pipelines"`
}

func scrapeMetrics(base string) (serverMetrics, error) {
	var m serverMetrics
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&m)
	http.DefaultClient.CloseIdleConnections()
	return m, err
}

// runTraced produces the per-layer metrics: the same two phases with
// the wrappers installed and switched on for every other saturate
// slice, then each layer on its own, then the recovery probe.
func runTraced(cfg runConfig, in *inputs, res *result) error {
	poolBase := frame.Stats().Live
	tr := newTracer(int64(cfg.warmup))
	r, err := setUp(cfg, in, tr)
	if err != nil {
		return err
	}
	s, c := r.s, r.c
	stopped := false
	defer func() {
		if !stopped {
			r.tearDown()
		}
	}()
	live := clusterLive{tr: tr, openMS: r.openMS, replayB: r.replayB}

	// Saturate, wrappers on during odd slices.
	half := cfg.measure / 2
	width := half / tracedSlices
	var tracedFrames atomic.Int64
	creditStop := make(chan struct{})
	var creditWG sync.WaitGroup
	if s.disp != nil {
		creditWG.Add(1)
		go func() {
			defer creditWG.Done()
			live.creditsMax = watchCredits(s.disp, creditStop)
		}()
	}
	before := snapshot()
	yBefore := yardstick()
	sat := c.run(phase{dur: half, tick: func(_ int, elapsed time.Duration) {
		on := tracedSlice(int(elapsed/width)) && elapsed < half
		if on {
			tracedFrames.Add(1)
		}
		if tr.on.Load() != on {
			tr.on.Store(on)
		}
	}})
	tr.on.Store(false)
	after := snapshot()
	close(creditStop)
	creditWG.Wait()
	paced := c.run(phase{rate: float64(cfg.wl.rateFPS), dur: half})
	end := snapshot()
	yAfter := yardstick()
	sm, err := scrapeMetrics(s.base)
	if err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	res.account(c)
	r.tearDown()
	stopped = true
	frames := float64(len(sat.doneAt))
	if frames == 0 || len(paced.latencyMS) == 0 {
		return fmt.Errorf("no frames completed: %v", c.failures)
	}

	// client: context for the gated latencies.
	rates := sliceRates(sat.doneAt, half, tracedSlices)
	var off, on []float64
	for i, r := range rates {
		if tracedSlice(i) {
			on = append(on, r)
		} else {
			off = append(off, r)
		}
	}
	top := highestPercentile(len(paced.latencyMS))
	if top < 0.99 {
		fmt.Fprintf(cfg.log, "note: %d paced samples support p%g at most; client.latency_p99_ms has fewer than ten samples beyond it\n",
			len(paced.latencyMS), top*100)
	}
	all := float64(len(sat.doneAt) + len(paced.doneAt))
	res.set("client.latency_p99_ms", percentile(paced.latencyMS, 0.99), "ms")
	res.set("client.latency_max_ms", percentile(paced.latencyMS, 1), "ms")
	res.set("client.sched_lag_p99_ms", percentile(paced.lagMS, 0.99), "ms")
	res.set("client.backpressure_429", float64(sat.n429+paced.n429), "count")
	res.set("client.fps_slice_iqr", spread(off), "ratio")
	res.set("client.request_bytes", float64(sat.reqBytes+paced.reqBytes)/all, "B")
	res.set("client.response_bytes", float64(sat.respBytes+paced.respBytes)/all, "B")
	res.set("client.json_encode_us", in.encodeUS, "us")
	res.set("client.json_decode_us", mean(append(sat.decodeUS, paced.decodeUS...)), "us")

	// serve: live self times from the spans, isolated JSON costs, and
	// the server's own view from /metrics.
	st := tr.reduce()
	live.st = st
	live.frames = int(tracedFrames.Load())
	decUS, encUS, err := serveJSON(in, cfg.isolate)
	if err != nil {
		return fmt.Errorf("serve JSON timing: %w", err)
	}
	res.set("serve.feed_self_us", st.feedSelfUS, "us")
	res.set("serve.collect_self_us", st.collectSelfUS, "us")
	res.set("serve.collect_wait_us", st.collectWaitUS, "us")
	res.set("serve.json_decode_us", decUS, "us")
	res.set("serve.json_encode_us", encUS, "us")
	res.set("serve.metrics_p50_ms", sm.Pipelines[cfg.wl.app].P50, "ms")
	res.set("serve.metrics_p99_ms", sm.Pipelines[cfg.wl.app].P99, "ms")
	res.set("serve.rejected_429", sm.Rejected, "count")

	// cluster: live spans where the workload has a cluster; otherwise a
	// short traced side run of the same pipeline behind one worker, so
	// the layer's price for this pipeline sits beside the in-process row.
	if cfg.wl.workers == 0 {
		if live, err = clusterSideRun(cfg, in, res); err != nil {
			return fmt.Errorf("cluster side run: %w", err)
		}
	}
	live.emit(res)

	wc, err := wireCodec(cfg.wl, in, cfg.isolate)
	if err != nil {
		return fmt.Errorf("wire timing: %w", err)
	}
	res.set("wire.encode_feed_us", wc.encodeFeedUS, "us")
	res.set("wire.decode_feed_us", wc.decodeFeedUS, "us")
	res.set("wire.encode_result_us", wc.encodeResultUS, "us")
	res.set("wire.decode_result_us", wc.decodeResultUS, "us")
	res.set("wire.feed_bytes", wc.feedBytes, "B")
	res.set("wire.result_bytes", wc.resultBytes, "B")

	_, p, err := compileRegistry(cfg.wl, cfg.seed)
	if err != nil {
		return err
	}
	rc, err := runtimeDirect(cfg.wl, p, in, cfg.isolate)
	if err != nil {
		return fmt.Errorf("runtime timing: %w", err)
	}
	res.set("runtime.direct_frames_per_s", rc.directFPS, "1/s")
	res.set("runtime.direct_us_per_frame", rc.directUS, "us")
	res.set("runtime.direct_allocs_per_frame", rc.directAllocs, "count")
	res.set("runtime.feed_us", rc.feedUS, "us")
	res.set("runtime.collect_wait_us", rc.collectWaitUS, "us")

	model, err := paperModel(p)
	if err != nil {
		return err
	}
	kc, err := kernelLoops(cfg.isolate)
	if err != nil {
		return fmt.Errorf("kernel timing: %w", err)
	}
	res.set("kernel.conv_ns_per_sample", kc.convNS, "ns")
	res.set("kernel.median_ns_per_sample", kc.medianNS, "ns")
	res.set("kernel.histogram_ns_per_sample", kc.histogramNS, "ns")
	res.set("kernel.bayer_u8_ns_per_sample", kc.bayerU8NS, "ns")
	res.set("kernel.ns_per_cycle", rc.directUS*1e3/model.cyclesPerFrame, "ns")

	satPool := after.pool
	gets := float64(satPool.Gets - before.pool.Gets)
	res.set("frame.pool_gets_per_frame", gets/frames, "count")
	res.set("frame.pool_hit_ratio", float64(satPool.Hits-before.pool.Hits)/math.Max(gets, 1), "ratio")

	res.set("core.compile_ms", s.compileMS, "ms")
	res.set("placement.plan_ms", model.planMS, "ms")
	res.set("placement.cut_bytes_per_frame", model.cutBytesPerFrame, "B")
	res.set("analysis.cycles_per_frame", model.cyclesPerFrame, "count")
	res.set("sim.mean_utilization", model.meanUtilization, "ratio")
	res.set("sim.realtime_met", model.realtimeMet, "count")

	res.set("process.alloc_bytes_per_frame", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/frames, "B")
	res.set("process.gc_cycles", float64(end.mem.NumGC-before.mem.NumGC), "count")
	res.set("process.gc_pause_ms", float64(end.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, "ms")
	res.set("process.yardstick_ms", float64((yBefore+yAfter).Nanoseconds())/2e6, "ms")
	res.set("trace.overhead_ratio", median(off)/median(on), "ratio")
	res.set("trace.attributed_ratio", st.attributedFrac, "ratio")

	// recovery: kills and drains on the probe's own fleet.
	probe, err := recoveryProbe(cfg.wl, cfg.seed, in, cfg.events)
	res.Attempted += probe.attempted
	res.Failed += probe.failed
	res.failures = append(res.failures, probe.failures...)
	if err != nil {
		return fmt.Errorf("recovery probe: %w", err)
	}
	res.set("cluster.recovery_ms_p50", median(probe.recoveryMS), "ms")
	res.set("cluster.recovery_ms_max", percentile(probe.recoveryMS, 1), "ms")
	res.set("cluster.replay_frames_per_s", probe.replayFPS, "1/s")
	res.set("cluster.migration_pause_ms_p50", median(probe.migrationMS), "ms")
	res.set("cluster.partitions_failed_over", float64(probe.partitionsFailedOver), "count")

	// Everything is torn down: whatever the arena still counts as live
	// is a leaked reference.
	res.set("frame.live_after", float64(frame.Stats().Live-poolBase), "count")

	if cfg.traceDir != "" {
		path := filepath.Join(cfg.traceDir, cfg.wl.name+".trace.json")
		n, err := tr.writeTrace(path, c.sid)
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(cfg.log, "trace: %d events in %s\n", n, path)
	}
	fmt.Fprintf(cfg.log, "%s seed %d traced: fps off %.1f on %.1f; frame %.0f us = client %.0f + serve.feed %.0f + backend.feed %.0f + pipeline %.0f + serve.collect %.0f (attributed %.3f); recovery %.1f ms, migration %.1f ms\n",
		cfg.wl.name, cfg.seed, off, on, st.frameUS, st.clientSelfUS, st.feedSelfUS, st.backendFeedUS,
		st.pipelineUS, st.collectSelfUS, st.attributedFrac, probe.recoveryMS, probe.migrationMS)
	return nil
}

// clusterSideRun streams the workload's pipeline for about a second
// through a one-worker loopback cluster with the wrappers on.
func clusterSideRun(cfg runConfig, in *inputs, res *result) (clusterLive, error) {
	side := cfg
	side.wl.workers = 1
	side.warmup = min(cfg.warmup, 100)
	tr := newTracer(int64(side.warmup))
	r, err := setUp(side, in, tr)
	if err != nil {
		return clusterLive{}, err
	}
	defer r.tearDown()
	s, c := r.s, r.c
	live := clusterLive{tr: tr, openMS: r.openMS, replayB: r.replayB}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		live.creditsMax = watchCredits(s.disp, stop)
	}()
	tr.on.Store(true)
	sat := c.run(phase{dur: min(cfg.measure/10, time.Second)})
	tr.on.Store(false)
	close(stop)
	wg.Wait()
	res.account(c)
	live.st = tr.reduce()
	live.frames = len(sat.doneAt)
	return live, nil
}
