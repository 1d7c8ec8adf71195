package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// shortRun is a run small enough for a test: under a second per window
// and two set-ups.
func shortRun(seed uint64, trace bool) config {
	return config{seed: seed, trace: trace, slice: 400 * time.Millisecond, perWin: 2, warm: 200 * time.Millisecond, setups: 2}
}

// inputs is everything a seed decides: the map-typed read and write key
// sequences, the http-edge operation sequence, and the value contents.
func inputs(seed uint64) [][]uint64 {
	reads, writes, ops := mapReads(seed), mapWrites(seed), newHTTPOps(seed)
	var r, w, o []uint64
	for range 512 {
		r = append(r, uint64(reads.Next()))
		w = append(w, uint64(writes.Next()))
		k, put := ops.next()
		o = append(o, uint64(k)*2)
		if put {
			o[len(o)-1]++
		}
	}
	blob := make([]byte, regValueSize)
	fillBlob(blob, stream(seed, 1), 7)
	q := newQuote(stream(seed, 1), "key-000001", 7)
	return [][]uint64{r, w, o, {blobSum(blob)}, {math.Float64bits(q.Bid), q.Check}}
}

func TestSeedDecidesInputs(t *testing.T) {
	if a, b := inputs(1), inputs(1); !reflect.DeepEqual(a, b) {
		t.Fatal("seed 1 gave two different input sequences")
	}
	a, b := inputs(1), inputs(2)
	for i := range a {
		if reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input sequence %d is the same for seeds 1 and 2", i)
		}
	}
}

// units are the end-to-end metrics each workload reports, with their
// units.
var units = map[string]string{
	"setup_s": "s", "read_ops_s": "ops/s", "read_p50_ns": "ns", "read_p99_ns": "ns",
	"write_ops_s": "ops/s", "write_p50_ns": "ns", "write_p99_ns": "ns",
	"fail_ratio": "ratio", "heap_peak_mb": "MB",
}

var extraE2E = map[string]map[string]string{
	"map-typed": {"snapshot_p50_us": "us"},
	"http-edge": {"observe_p50_us": "us", "observe_p99_us": "us"},
}

var layerMetrics = map[string][]string{
	"reg-paper": {"arc.read_ns", "arc.read_fastpath_ratio", "arc.rmw_per_read", "arc.write_ns",
		"arc.rmw_per_write", "arc.scan_per_write", "arc.hint_hit_ratio"},
	"mn-rw": {"mnreg.read_ns", "mnreg.read_fastpath_ratio", "mnreg.rmw_per_read",
		"mnreg.write_ns", "mnreg.rmw_per_write"},
	"map-typed": {"regmap.get_ns", "regmap.set_ns", "regmap.get_fastpath_ratio", "regmap.rmw_per_get",
		"regmap.unchanged_get_ratio", "regmap.dir_refreshes_per_kget", "regmap.snapshot_us",
		"regmap.snapshot_retries_per_snapshot", "codec.decode_ns", "codec.encode_ns",
		"codec.allocs_per_decode", "codec.read_share"},
	"http-edge": {"serve.get_ttfb_ns", "serve.read_fastpath_ratio", "serve.read_rmw_per_get",
		"serve.bytes_out_per_get", "serve.queue_depth_max", "serve.shed_ratio", "serve.conns_accepted",
		"notify.events_per_put", "notify.conflated_ratio", "notify.cascade_p99_us",
		"trace.flush_p99_us", "trace.events_per_put"},
}

// everyWorkload are the per-layer metrics every workload reports.
var everyWorkload = []string{"bench.gen_lag_p99_us", "bench.span_overhead_ratio",
	"runtime.gc_per_s", "runtime.alloc_mb_s"}

func byName(ms []metric) map[string]metric {
	out := map[string]metric{}
	for _, m := range ms {
		out[m.name] = m
	}
	return out
}

func TestShortRunReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := w.run(shortRun(3, true))
			if err != nil {
				t.Fatal(err)
			}
			e2e := byName(res.e2e)
			want := map[string]string{}
			for n, u := range units {
				want[n] = u
			}
			for n, u := range extraE2E[w.name] {
				want[n] = u
			}
			for n, u := range want {
				m, ok := e2e[n]
				switch {
				case !ok:
					t.Errorf("end-to-end metric %s missing", n)
				case m.unit != u:
					t.Errorf("%s has unit %q, want %q", n, m.unit, u)
				case n != "fail_ratio" && !(m.value > 0):
					t.Errorf("%s = %v, want > 0", n, m.value)
				}
			}
			if w.name != "http-edge" && e2e["fail_ratio"].value != 0 {
				t.Errorf("fail_ratio = %v on an in-process workload", e2e["fail_ratio"].value)
			}
			layers := byName(res.layers)
			for _, n := range append(layerMetrics[w.name], everyWorkload...) {
				if _, ok := layers[n]; !ok {
					t.Errorf("per-layer metric %s missing", n)
				}
			}
			for _, n := range declared.perLayer {
				if m, ok := layers[n]; !ok || !(m.value > 0) {
					t.Errorf("declared per-layer metric %s = %v (measured: %v), want > 0", n, m.value, ok)
				}
			}
			if res.spans == nil || res.spans.n == 0 {
				t.Error("the traced window recorded no bench spans")
			}
		})
	}
}

func TestBadValueFailsRun(t *testing.T) {
	for _, w := range workloads {
		for s, name := range map[sabotage]string{badChecksum: "checksum", oldSequence: "old-sequence"} {
			t.Run(w.name+"/"+name, func(t *testing.T) {
				cfg := shortRun(5, false)
				cfg.sabotage = s
				if _, err := w.run(cfg); err == nil {
					t.Fatal("the run reported numbers")
				}
			})
		}
	}
}

// TestOutputLines runs every workload through the command's own path and
// checks the last line against BENCHMARK.json's per-layer list, and the
// span dumps.
func TestOutputLines(t *testing.T) {
	dir := t.TempDir()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run("all", 1, 1, true, dir, "test")
	os.Stdout = stdout
	w.Close()
	var lines []string
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	var last outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if !last.Correct || last.Attempted == 0 {
		t.Errorf("outcome %+v", last)
	}
	var want []string
	for _, wl := range workloads {
		for _, n := range declared.perLayer {
			want = append(want, wl.name+"."+n)
		}
		if _, err := os.Stat(filepath.Join(dir, "spans-"+wl.name+"-seed1.jsonl")); err != nil {
			t.Error(err)
		}
	}
	if len(last.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(last.Metrics), len(want))
	}
	for _, n := range want {
		if _, ok := last.Metrics[n]; !ok {
			t.Errorf("metric %s missing", n)
		}
	}
	if !strings.Contains(lines[0], `"machine"`) || !strings.Contains(lines[0], `"clocksource"`) {
		t.Errorf("first line records no machine: %s", lines[0])
	}
}
