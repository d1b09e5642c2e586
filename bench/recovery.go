package main

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"blockpar/internal/cluster"
)

// The recovery probe prices what PR 10 added and nobody had measured:
// how long a client sees nothing when the worker hosting its session
// dies (kill, then a fresh worker rejoins on the same address) or is
// drained (POST /drain-worker, a live migration). It always runs on
// its own 3-worker, Partitions:3 fleet — cluster_part3's topology —
// with the workload's own pipeline and frames, so every workload's
// traced run reports what losing a worker would cost that pipeline. A
// pipeline whose placement collapses to one partition (app 1u8) takes
// the whole-session failover path instead; the client-side numbers
// mean the same either way.

const (
	// probeRate paces the probe's stream (open loop); it resolves a
	// pause to 10 ms.
	probeRate = 100.0
	// probeGap is how many healthy frames separate one event's recovery
	// from the next event. It is what keeps the probe recoverable at
	// all: a partitioned app-4 session retains about 116 KB of replay
	// log per frame and never trims it, so the shipped 32 MiB budget is
	// spent after some 290 frames and a worker lost after that point
	// ends the session. Five events 30 frames apart stay under 200.
	probeGap = 30
	// probeEvents is how many kills, and then how many drains, the
	// probe performs; the issue asks for at least five of each.
	probeEvents = 5
)

type recoveryCosts struct {
	recoveryMS  []float64 // per kill: largest gap between replies around it
	migrationMS []float64 // per drain, likewise
	replayFPS   float64   // frames replayed ÷ time spent recovering
	// partitionsFailedOver + sessionsFailedOver must equal the kills:
	// which one ticks depends on whether the pipeline partitioned.
	partitionsFailedOver, sessionsFailedOver, migrated int64
	kills, drains                                      int
	attempted, failed                                  int64
	failures                                           []string
}

// counters reads the dispatcher's failover counters.
func counters(d *cluster.Dispatcher) (partitions, sessions, migrated, replayed int64) {
	stats, _ := d.BackendStats().(map[string]any)
	get := func(k string) int64 { v, _ := stats[k].(int64); return v }
	return get("partitions_failed_over"), get("sessions_failed_over"), get("sessions_migrated"), get("frames_replayed")
}

// victim picks a worker hosting exactly one partition (or the whole
// session). Killing a worker that hosts two would take two partitions
// down at once, which the system documents as fatal to the session —
// a different experiment.
func victim(s *system) (int, error) {
	stats, _ := s.disp.BackendStats().(map[string]any)
	rows, _ := stats["workers"].([]cluster.WorkerStats)
	for _, row := range rows {
		if row.Sessions != 1 || row.State != "connected" {
			continue
		}
		for i, fw := range s.fleet {
			if fw.addr == row.Addr {
				return i, nil
			}
		}
	}
	return 0, fmt.Errorf("no worker hosts exactly one partition: %+v", rows)
}

// bounce kills worker i abruptly and starts a fresh one on the same
// address, then waits until the dispatcher has reconnected to it.
func (s *system) bounce(i int) error {
	fw := s.fleet[i]
	fw.w.Close()
	// The listener's port is free as soon as Close returns, but give
	// the kernel a few tries in case the close is still settling.
	var err error
	for try := 0; try < 50; try++ {
		if err = s.serveWorker(fw, fw.addr, i); err == nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	return err
}

// maxGap is the largest distance between consecutive replies whose
// later reply arrived after the event at `at` and no later than
// `until` (the next event): the pause that event caused.
func maxGap(doneAt []time.Duration, at, until time.Duration) float64 {
	var worst time.Duration
	for i := 1; i < len(doneAt); i++ {
		if doneAt[i] <= at || doneAt[i] > until {
			continue
		}
		if g := doneAt[i] - doneAt[i-1]; g > worst {
			worst = g
		}
	}
	return float64(worst.Nanoseconds()) / 1e6
}

// recoveryProbe runs the kill cycles on one session and the drain
// cycles on a second (so the second starts with an empty replay log).
func recoveryProbe(wl workload, seed uint64, in *inputs, events int) (recoveryCosts, error) {
	var rc recoveryCosts
	pw := workload{name: wl.name, app: wl.app, workers: 3, partitions: 3, explicit: wl.explicit}
	s, err := startSystem(pw, seed, nil)
	if err != nil {
		return rc, err
	}
	defer s.stop()

	// stream runs one session under an open-loop load while act is
	// applied `events` times, and returns each event's pause.
	stream := func(act func(i int) error, settled func(done int) bool) ([]float64, float64, error) {
		c, err := openClient(s, in, nil)
		if err != nil {
			return nil, 0, err
		}
		defer c.close()
		var collected atomic.Int64
		var stop atomic.Bool
		eventAt := make([]time.Duration, 0, events)
		var actErr error
		ctl := make(chan struct{})
		start := time.Now()
		go func() {
			defer close(ctl)
			defer stop.Store(true)
			next := int64(probeGap)
			deadline := time.Now().Add(60 * time.Second)
			wait := func(cond func() bool) bool {
				for !cond() {
					if time.Now().After(deadline) || stop.Load() {
						return false
					}
					time.Sleep(time.Millisecond)
				}
				return true
			}
			for k := 0; k < events; k++ {
				if !wait(func() bool { return collected.Load() >= next }) {
					actErr = fmt.Errorf("event %d: stream stalled at %d frames", k, collected.Load())
					return
				}
				i, err := victim(s)
				if err != nil {
					actErr = err
					return
				}
				eventAt = append(eventAt, time.Since(start))
				if err := act(i); err != nil {
					actErr = err
					return
				}
				if !wait(func() bool { return settled(k+1) && s.disp.PlaceableWorkers() == len(s.fleet) }) {
					actErr = fmt.Errorf("event %d: fleet did not settle", k)
					return
				}
				next = collected.Load() + probeGap
			}
			// A few healthy frames after the last recovery close its pause.
			wait(func() bool { return collected.Load() >= next-probeGap+10 })
		}()
		res := c.run(phase{rate: probeRate, stop: &stop, tick: func(n int, _ time.Duration) { collected.Store(int64(n)) }})
		stop.Store(true)
		<-ctl
		rc.attempted += c.attempted
		rc.failed += c.failed
		rc.failures = append(rc.failures, c.failures...)
		if actErr != nil {
			return nil, 0, actErr
		}
		pauses := make([]float64, len(eventAt))
		var total float64
		for k, at := range eventAt {
			until := res.elapsed
			if k+1 < len(eventAt) {
				until = eventAt[k+1]
			}
			pauses[k] = maxGap(res.doneAt, at, until)
			total += pauses[k]
		}
		return pauses, total, nil
	}

	_, _, _, replayed0 := counters(s.disp)
	var recovering float64
	rc.recoveryMS, recovering, err = stream(
		func(i int) error { return s.bounce(i) },
		func(done int) bool {
			p, w, _, _ := counters(s.disp)
			return p+w >= int64(done)
		})
	if err != nil {
		return rc, fmt.Errorf("kill cycles: %w", err)
	}
	rc.kills = len(rc.recoveryMS)
	var replayed1 int64
	rc.partitionsFailedOver, rc.sessionsFailedOver, _, replayed1 = counters(s.disp)
	if recovering > 0 {
		rc.replayFPS = float64(replayed1-replayed0) / (recovering / 1e3)
	}

	rc.migrationMS, _, err = stream(
		func(i int) error {
			resp, err := http.Post(s.base+"/drain-worker?worker="+url.QueryEscape(s.fleet[i].addr), "", http.NoBody)
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("drain-worker: HTTP %d", resp.StatusCode)
			}
			// A drained worker stays unplaceable until it reconnects;
			// once its partition has moved it hosts nothing, so bounce it
			// to put the fleet back to three placeable workers.
			deadline := time.Now().Add(30 * time.Second)
			for {
				_, _, m, _ := counters(s.disp)
				if m > rc.migrated {
					rc.migrated = m
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("drain-worker: migration did not complete")
				}
				time.Sleep(time.Millisecond)
			}
			return s.bounce(i)
		},
		func(int) bool { return true })
	if err != nil {
		return rc, fmt.Errorf("drain cycles: %w", err)
	}
	rc.drains = len(rc.migrationMS)
	http.DefaultClient.CloseIdleConnections()

	if rc.partitionsFailedOver+rc.sessionsFailedOver != int64(rc.kills) {
		return rc, fmt.Errorf("%d kills but %d partitions + %d sessions failed over",
			rc.kills, rc.partitionsFailedOver, rc.sessionsFailedOver)
	}
	return rc, nil
}
