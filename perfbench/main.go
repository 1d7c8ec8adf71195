// Command perfbench is arcreg's benchmark. It runs one of four seeded
// workloads, from the raw (1,N) ARC register up to HTTP PUT→SSE, checks
// every value it reads, and prints its metrics as one JSON line:
//
//	bash perfbench/run.sh --workload reg-paper --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures end-to-end metrics with no bench spans.
// With --trace 1 the same set-up runs an untraced window and then a traced
// one, in which the benchmark records spans around its calls into each
// layer and reads the layers' own counters; the per-layer metrics come
// from the traced window. --workload all runs every workload in turn.
//
// BENCHMARK.json records why each workload was chosen; predictions.json
// records which end-to-end metric each per-layer metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"arcreg/internal/metrics"
)

// sabotage makes a workload's writer publish one bad value through the
// public write API and then stop writing; the run must then fail.
type sabotage uint8

const (
	noSabotage  sabotage = iota
	badChecksum          // a value whose checksum does not hold
	oldSequence          // a value older than one already written
)

type config struct {
	seed      uint64
	slice     time.Duration // metrics are medians over slices of this length
	perWin    int           // slices per measured window
	warm      time.Duration
	trace     bool
	setups    int           // at least this many set-ups per run; set-up time is their median
	setupTime time.Duration // and set up again until this much time has passed
	sabotage  sabotage
}

// phases lays out a run that starts now.
func (c config) phases() phases {
	windows := 1
	if c.trace {
		windows = 2
	}
	return newPhases(now(), c.warm, c.slice, c.perWin, windows)
}

// stream derives an independent seed for one generator of a run.
func stream(seed, n uint64) uint64 { return mix64(seed*mixA + n) }

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	e2e       []metric // every end-to-end metric that applies to the workload
	layers    []metric // per-layer metrics, traced runs only
	attempted uint64
	failed    uint64
	spans     *spanLog
}

// count adds the load goroutines' measured operations to the result.
func (r *result) count(trs ...*tracker) {
	for _, tr := range trs {
		for i := range tr.win {
			r.attempted += tr.win[i].ops
			r.failed += tr.win[i].failed
		}
	}
}

type job struct {
	name string
	run  func(config) (*result, error)
}

var workloads = []job{
	{"reg-paper", runRegPaper},
	{"mn-rw", runMNRW},
	{"map-typed", runMapTyped},
	{"http-edge", runHTTPEdge},
}

// declared are the metric names BENCHMARK.json lists: those measured on
// every workload, never 0 and, for the end-to-end ones, steady from run
// to run (predictions.json gives the spreads that kept the others out).
// The runtime layer's metrics are 0 on the register workloads, which
// neither allocate nor collect. The last line of output carries exactly
// these; the report line before it carries every metric the workload
// measured.
var declared = struct {
	endToEnd, perLayer []string
}{
	endToEnd: []string{"setup_s", "heap_peak_mb"},
	perLayer: []string{"bench.gen_lag_p99_us", "bench.span_overhead_ratio"},
}

// commonE2E is the end-to-end metrics every workload reports, from its
// reader's and writer's untraced window.
func commonE2E(setup []float64, rd, wr summary, rt rtWindow) []metric {
	return []metric{
		{"setup_s", "s", median(setup)},
		{"read_ops_s", "ops/s", rd.rate},
		{"read_p50_ns", "ns", rd.p50},
		{"read_p99_ns", "ns", rd.p99},
		{"write_ops_s", "ops/s", wr.rate},
		{"write_p50_ns", "ns", wr.p50},
		{"write_p99_ns", "ns", wr.p99},
		{"fail_ratio", "ratio", ratio(float64(rd.failed+wr.failed), float64(rd.ops+wr.ops))},
		{"heap_peak_mb", "MB", float64(rt.heapPeak) / 1e6},
	}
}

// benchLayers is the bench and runtime layers' metrics, from the traced
// window.
func benchLayers(genLag *metrics.Histogram, untracedReads, tracedReads float64, rt rtWindow) []metric {
	return []metric{
		{"bench.gen_lag_p99_us", "us", genLag.Quantile(0.99) / 1e3},
		{"bench.span_overhead_ratio", "ratio", ratio(tracedReads, untracedReads)},
		{"runtime.gc_per_s", "1/s", rt.gcPerS},
		{"runtime.alloc_mb_s", "MB/s", rt.allocMBps},
	}
}

type machine struct {
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Clocksource string `json:"clocksource"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
}

func clocksource() string {
	b, err := os.ReadFile("/sys/devices/system/clocksource/clocksource0/current_clocksource")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line of output.
type outcome struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "reg-paper", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "seed for every key, value and operation choice")
		seconds = flag.Int("seconds", 10, "measured seconds")
		traced  = flag.Int("trace", 0, "1 for the traced run that yields per-layer metrics")
		out     = flag.String("out", "", "directory for span dumps of traced runs")
		commit  = flag.String("commit", "unknown", "commit the program was built from")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *out, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, out, commit string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: must be at least 1", seconds)
	}
	todo := workloads
	if name != "all" {
		i := slices.IndexFunc(workloads, func(w job) bool { return w.name == name })
		if i < 0 {
			return fmt.Errorf("unknown workload %q", name)
		}
		todo = workloads[i : i+1]
	}
	// One-second slices; a traced run splits its seconds between the
	// untraced and the traced window.
	cfg := config{seed: seed, trace: traced, setups: 9, setupTime: 2 * time.Second,
		slice: time.Second, perWin: seconds, warm: time.Second}
	if traced {
		cfg.perWin = max(1, seconds/2)
	}

	final := outcome{Correct: true, Metrics: map[string]jsonMetric{}}
	want := declared.endToEnd
	if traced {
		want = declared.perLayer
	}
	for _, w := range todo {
		m := machine{runtime.NumCPU(), runtime.GOMAXPROCS(0), clocksource(), runtime.Version(),
			commit, w.name, seed, seconds, traced}
		res, err := w.run(cfg)
		if err != nil {
			printJSON(map[string]any{"machine": m, "error": err.Error()})
			printJSON(outcome{Metrics: map[string]jsonMetric{}})
			return fmt.Errorf("%s: %w", w.name, err)
		}
		report := map[string]jsonMetric{}
		for _, mt := range append(res.e2e, res.layers...) {
			report[mt.name] = jsonMetric{mt.value, mt.unit}
		}
		printJSON(map[string]any{"machine": m, "report": report})
		if traced && out != "" {
			if err := dumpSpans(out, m, report, res.spans); err != nil {
				return err
			}
		}
		final.Attempted += res.attempted
		final.Failed += res.failed
		for _, n := range want {
			mt, ok := report[n]
			if !ok {
				return fmt.Errorf("%s: metric %s not measured", w.name, n)
			}
			if len(todo) > 1 {
				n = w.name + "." + n
			}
			final.Metrics[n] = mt
		}
	}
	if final.Attempted == 0 {
		return errors.New("no operation was attempted")
	}
	printJSON(final)
	return nil
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings and numbers are printed
	}
	fmt.Println(string(b))
}

// dumpSpans writes a traced run's bench spans, one JSON object a line,
// after a header line with the machine and the report.
func dumpSpans(dir string, m machine, report map[string]jsonMetric, spans *spanLog) error {
	if spans == nil {
		return nil
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", m.Workload, m.Seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	enc.Encode(map[string]any{"machine": m, "report": report, "spans_recorded": spans.n})
	for _, s := range spans.ring {
		enc.Encode(struct {
			Op    uint64 `json:"op"`
			Name  string `json:"name"`
			Start int64  `json:"start_ns"`
			End   int64  `json:"end_ns"`
		}{s.op, spanNames[s.name], s.start, s.end})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}
