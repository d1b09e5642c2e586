package main

import (
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"blockpar/internal/wire"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndMean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 5, 1000}, 5}, // one outlier slice does not move it
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
	if got := mean([]float64{1, 2, 6}); !near(got, 3) {
		t.Errorf("mean = %v, want 3", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct{ p, want float64 }{
		{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing is not 0")
	}
}

// The rule the choosing-metrics guide fixes: report the highest
// percentile that still has at least ten samples beyond it.
func TestHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10, 0}, // not even a median has ten beyond it
		{20, 0.50},
		{99, 0.50},
		{100, 0.90},
		{199, 0.90},
		{200, 0.95},
		{999, 0.95},
		{1000, 0.99},
		{1500, 0.99},
		{9999, 0.99},
		{10000, 0.999},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// Values checked against Python's statistics.quantiles(xs, n=4), the
// function the driver computes spreads with.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 3, 3, 3}, 3, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if spread([]float64{0, 0, 0}) != 0 {
		t.Error("spread with a zero median must be 0, not a division by zero")
	}
}

func TestSliceRates(t *testing.T) {
	// 10 frames in the first second, 20 in the second, one straggler
	// drained after the phase ended.
	var done []time.Duration
	for i := 0; i < 10; i++ {
		done = append(done, time.Duration(i)*100*time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		done = append(done, time.Second+time.Duration(i)*50*time.Millisecond)
	}
	done = append(done, 2*time.Second+time.Millisecond)
	got := sliceRates(done, 2*time.Second, 2)
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Errorf("sliceRates = %v, want [10 20]", got)
	}
}

func TestBoundArithmetic(t *testing.T) {
	for _, tc := range []struct {
		base, cand float64
		better     string
		want       float64
	}{
		{100, 105, "lower", 0.05},   // latency rose 5 %: worse
		{100, 95, "lower", -0.05},   // latency fell: better
		{100, 95, "higher", 0.05},   // throughput fell 5 %: worse
		{100, 110, "higher", -0.10}, // throughput rose: better
		{0, 5, "lower", 0},          // no base, no ratio
	} {
		if got := worsening(tc.base, tc.cand, tc.better); !near(got, tc.want) {
			t.Errorf("worsening(%v, %v, %s) = %v, want %v", tc.base, tc.cand, tc.better, got, tc.want)
		}
	}
	for _, tc := range []struct {
		worse, spread, bound float64
		want                 string
	}{
		{0.02, 0.01, 0.05, "within"},
		{0.05, 0.01, 0.05, "within"}, // exactly at the bound still passes
		{0.06, 0.01, 0.05, "regressed"},
		{0.06, 0.08, 0.05, "unresolved"}, // noise wider than the bound decides first
		{-0.20, 0.08, 0.05, "unresolved"},
		{-0.20, 0.01, 0.05, "within"},
	} {
		if got := verdict(tc.worse, tc.spread, tc.bound); got != tc.want {
			t.Errorf("verdict(%v, %v, %v) = %s, want %s", tc.worse, tc.spread, tc.bound, got, tc.want)
		}
	}
}

func TestNameCharset(t *testing.T) {
	for _, ok := range []string{"setup_s", "client.latency_p99_ms", "a", "9lives", "A-b_c.d", "trace.overhead_ratio"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", ".hidden", "_x", "-x", "has space", "slash/name", "pct%", "é", string(long)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

func TestFrameScannerFollowsArbitraryChunks(t *testing.T) {
	// Three frames: a 30-byte Feed for seq 7, a 9-byte ping-sized frame
	// too short to carry a sequence number, a 40-byte Result for seq 9.
	mk := func(typ byte, seq int64, size int) []byte {
		b := make([]byte, size)
		b[0], b[1], b[2], b[3] = 0, 0, byte((size-4)>>8), byte(size-4)
		b[4] = typ
		if size >= scanHead {
			for i := 0; i < 8; i++ {
				b[13+i] = byte(seq >> (56 - 8*i))
			}
		}
		return b
	}
	typeFeed, typePing, typeResult := byte(wire.TypeFeed), byte(wire.TypePing), byte(wire.TypeResult)
	stream := append(append(mk(typeFeed, 7, 30), mk(typePing, 0, 9)...), mk(typeResult, 9, 40)...)
	type seen struct {
		typ  byte
		size int
		seq  int64
	}
	want := []seen{{typeFeed, 30, 7}, {typePing, 9, -1}, {typeResult, 40, 9}}
	for chunk := 1; chunk <= len(stream); chunk++ {
		var sc frameScanner
		var got []seen
		for off := 0; off < len(stream); off += chunk {
			end := min(off+chunk, len(stream))
			sc.scan(stream[off:end], func(typ wire.MsgType, size int, seq int64) {
				got = append(got, seen{byte(typ), size, seq})
			})
		}
		if len(got) != len(want) {
			t.Fatalf("chunk %d: saw %d frames, want %d: %v", chunk, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("chunk %d: frame %d = %+v, want %+v", chunk, i, got[i], want[i])
			}
		}
	}
}

// Two synthetic result files through the real BENCHMARK.json: one pair
// inside its bound, one regressed, one whose spread hides the answer.
func TestCheckFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fps, p50, allocs []float64) string {
		path := dir + "/" + name
		for i := range fps {
			rec := record{Workload: "local_json", Seed: uint64(i), result: result{Correct: true, Attempted: 100,
				Metrics: map[string]metric{
					"frames_per_s":     {fps[i], "1/s"},
					"latency_p50_ms":   {p50[i], "ms"},
					"allocs_per_frame": {allocs[i], "count"},
				}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", []float64{100, 101, 99, 100}, []float64{4, 4.1, 3.9, 4}, []float64{1000, 1000, 1001, 1000})
	b := write("b.jsonl", []float64{99, 100, 98, 99}, []float64{2, 9, 3, 8}, []float64{1100, 1100, 1101, 1100})
	var out strings.Builder
	regressed, err := checkFiles("BENCHMARK.json", a, b, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a 10 % rise in allocs_per_frame (bound 0.06) was not reported as a regression")
	}
	for _, want := range []string{
		`local_json\s+frames_per_s\s.*\swithin`,
		`local_json\s+latency_p50_ms\s.*\sunresolved`,
		`local_json\s+allocs_per_frame\s.*\sregressed`,
		`local_json\s+setup_s\s.*\smissing`,
	} {
		if !regexp.MustCompile(want).MatchString(out.String()) {
			t.Errorf("--check output lacks %q:\n%s", want, out.String())
		}
	}
}
