package main

import (
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"testing"
	"time"

	"blockpar/internal/frame"
)

// TestSmoke runs every workload end to end, gated and traced, at tiny
// phase lengths: it proves the benchmark itself still works — every
// name BENCHMARK.json promises is emitted with its unit, replies check
// out against the goldens, and a run leaves nothing behind (arena
// references and goroutines return to where they were).
func TestSmoke(t *testing.T) {
	def, err := loadBenchmark("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, bpbench has %d", len(def.Workloads), len(workloads))
	}
	for _, wl := range def.Workloads {
		if _, err := workloadByName(wl.Name); err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", wl.Name, err)
		}
	}
	for _, m := range append(append([]metricDef(nil), def.EndToEnd...), def.PerLayer...) {
		if !validName(m.Name) {
			t.Errorf("metric name %q is outside the contract's charset", m.Name)
		}
	}

	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			goroutines := goruntime.NumGoroutine()
			live := frame.Stats().Live
			cfg := runConfig{
				wl: wl, seed: 7,
				measure: 300 * time.Millisecond,
				warmup:  24, setups: 1, events: 1,
				isolate:  2 * time.Millisecond,
				slices:   2,
				traceDir: t.TempDir(),
				log:      io.Discard,
			}
			for _, traced := range []bool{false, true} {
				cfg.trace = traced
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d: %v",
						traced, res.Correct, res.Attempted, res.Failed, res.failures)
				}
				want := def.EndToEnd
				if traced {
					want = def.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics emitted, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("trace=%v: metric %s not emitted", traced, m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if traced {
					if v := res.Metrics["frame.live_after"].Value; v != 0 {
						t.Errorf("frame.live_after = %v arena buffers above the pre-run baseline", v)
					}
					if fi, err := os.Stat(filepath.Join(cfg.traceDir, wl.name+".trace.json")); err != nil || fi.Size() == 0 {
						t.Errorf("no trace written: %v", err)
					}
				}
			}
			if got := frame.Stats().Live; got != live {
				t.Errorf("arena holds %d live buffers, %d before the run", got, live)
			}
			// Connection goroutines wind down asynchronously after Close.
			deadline := time.Now().Add(3 * time.Second)
			for goruntime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := goruntime.NumGoroutine(); got > goroutines {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines after the run, %d before\n%s", got, goroutines, buf[:goruntime.Stack(buf, true)])
			}
		})
	}
}
