package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// record is one run as --out appends it: the printed result plus what
// was run, one JSON object per line.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	Detail   *detail `json:"detail,omitempty"`
	result
}

func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// benchmarkDef is BENCHMARK.json, the single place bounds live.
type benchmarkDef struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadBenchmark reads the definition from path, also trying the parent
// directory so the command works from bench/ as well as the root.
func loadBenchmark(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) && !filepath.IsAbs(path) {
		data, err = os.ReadFile(filepath.Join("..", path))
	}
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// values gathers one metric's values over a file's runs of a workload.
func values(recs []record, workload, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// pairSpread is the noise against which a difference between two files
// is judged: the wider of the two files' own run-to-run spreads. A
// file with a single run of a workload has no spread of its own; for
// frames_per_s the traced run's slice spread (client.fps_slice_iqr)
// stands in, for the rest the pair cannot be resolved from one run
// and the spread is reported as infinite.
func pairSpread(a, b []record, workload, name string) float64 {
	worst := 0.0
	for _, recs := range [][]record{a, b} {
		xs := values(recs, workload, name)
		switch {
		case len(xs) >= 2:
			worst = max(worst, spread(xs))
		case name == "frames_per_s" && len(values(recs, workload, "client.fps_slice_iqr")) > 0:
			worst = max(worst, median(values(recs, workload, "client.fps_slice_iqr")))
		default:
			return math.Inf(1)
		}
	}
	return worst
}

// checkFiles compares result file B against A on every (end-to-end
// metric, workload) pair and prints one verdict per pair. It reports
// whether any pair regressed; failed frames in B regress it outright.
func checkFiles(benchmark, pathA, pathB string, w io.Writer) (regressed bool, err error) {
	def, err := loadBenchmark(benchmark)
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tworse by\tspread\tbound\tverdict")
	for _, wl := range def.Workloads {
		for _, r := range b {
			if r.Workload == wl.Name && r.Failed > 0 {
				fmt.Fprintf(tw, "%s\tfailed frames\t\t%d of %d\t\t\t0\tregressed\n", wl.Name, r.Failed, r.Attempted)
				regressed = true
			}
		}
		for _, m := range def.EndToEnd {
			xa, xb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t%.3f\tmissing\n", wl.Name, m.Name, m.Bound)
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := worsening(ma, mb, m.Better)
			sp := pairSpread(a, b, wl.Name, m.Name)
			v := verdict(worse, sp, m.Bound)
			if v == "regressed" {
				regressed = true
			}
			spText := fmt.Sprintf("%.3f", sp)
			if math.IsInf(sp, 1) {
				spText = "one run"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.3f\t%s\t%.3f\t%s\n",
				wl.Name, m.Name, ma, mb, worse, spText, m.Bound, v)
		}
	}
	return regressed, tw.Flush()
}
