package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSingleRunOutput(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-alg", "arc", "-threads", "3", "-size", "512",
		"-duration", "40ms", "-warmup", "10ms", "-latency-sample", "32",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"throughput:", "reads:", "writes:", "fast-path", "read latency:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFigureQuickWithCSV(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "out.csv")
	var sb strings.Builder
	err := run([]string{
		"-figure", "fig1", "-quick",
		"-threads", "2,3", "-sizes", "256",
		"-duration", "30ms", "-warmup", "5ms",
		"-csv", csv,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fig1") {
		t.Fatalf("missing table header:\n%s", sb.String())
	}
	blob, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(blob), "figure,size,threads,algorithm") {
		t.Fatalf("csv header wrong: %q", string(blob)[:60])
	}
	lines := strings.Count(strings.TrimSpace(string(blob)), "\n")
	if lines != 8 { // 2 threads × 1 size × 4 algorithms
		t.Fatalf("csv data lines = %d, want 8", lines)
	}
}

func TestRMWFigure(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-figure", "rmw", "-threads", "2", "-size", "256",
		"-duration", "30ms", "-warmup", "5ms", "-writers", "2"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rmw/read") {
		t.Fatalf("missing rmw table:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "mn-nogate") {
		t.Fatalf("missing MN rmw rows:\n%s", sb.String())
	}
}

func TestMNFigureQuick(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-figure", "mn", "-quick", "-sizes", "256",
		"-duration", "30ms", "-warmup", "5ms"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== mn:", "writers=4", "mn-nogate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mn figure output missing %q:\n%s", want, out)
		}
	}
}

func TestMNSingleRun(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-alg", "mn", "-writers", "2", "-threads", "4",
		"-size", "256", "-duration", "40ms", "-warmup", "10ms"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"mn threads=4 writers=2", "reads:", "writes:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mn single-run output missing %q:\n%s", want, out)
		}
	}
}

func TestMNWriterSweep(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-figure", "mn", "-writers", "1,2", "-threads", "3",
		"-sizes", "256", "-duration", "20ms", "-warmup", "5ms"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"writers=1,2", " M", "mn-nogate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mn writer sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestMapFigureQuick(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "map.csv")
	var sb strings.Builder
	err := run([]string{"-figure", "map", "-quick", "-threads", "2", "-keys", "8",
		"-duration", "30ms", "-warmup", "5ms", "-csv", csv}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== map:", "rmw/get", "keys"} {
		if !strings.Contains(out, want) {
			t.Fatalf("map figure output missing %q:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(blob), "figure,keys,threads,mops") {
		t.Fatalf("map csv header wrong: %q", string(blob))
	}
}

func TestMapSingleRun(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-alg", "map", "-threads", "2", "-size", "256",
		"-duration", "30ms", "-warmup", "5ms"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "map threads=2") {
		t.Fatalf("map single-run output:\n%s", sb.String())
	}
}

func TestLatencyFigure(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-figure", "latency", "-quick", "-threads", "3", "-size", "256"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "read p99") {
		t.Fatalf("missing latency table:\n%s", sb.String())
	}
}

// TestCSVCoversRMWAndLatency pins that -csv carries the experiments
// that used to print text only.
func TestCSVCoversRMWAndLatency(t *testing.T) {
	for _, args := range [][]string{
		{"-figure", "rmw", "-threads", "2,6", "-sizes", "256", "-duration", "30ms", "-warmup", "5ms"},
		{"-figure", "latency", "-quick", "-threads", "3", "-size", "256"},
	} {
		csv := filepath.Join(t.TempDir(), "out.csv")
		var sb strings.Builder
		if err := run(append(args, "-csv", csv), &sb); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[0], "figure,") {
			t.Fatalf("%s: want a figure header and at least one row, got:\n%s", args[1], blob)
		}
	}
}

func TestBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-figure", "fig9"}, &sb); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run([]string{"-alg", "bogus"}, &sb); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run([]string{"-mode", "bogus", "-alg", "arc"}, &sb); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"-figure", "fig1", "-threads", "2,x"}, &sb); err == nil {
		t.Error("malformed -threads list accepted")
	}
}

func TestMustInts(t *testing.T) {
	got, err := parseInts("1, 2,3 ,")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	got, err = parseInts("1k, 10K,25")
	if err != nil || len(got) != 3 || got[0] != 1000 || got[1] != 10000 || got[2] != 25 {
		t.Fatalf("parseInts with k suffix = %v, %v", got, err)
	}
}

// TestWatchFigureQuick smoke-runs the watch figure through the CLI and
// checks the backpressure columns reach the CSV: with the default slow
// consumer, the watch series must conflate publications.
func TestWatchFigureQuick(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "watch.csv")
	var sb strings.Builder
	err := run([]string{"-figure", "watch", "-quick", "-watchers", "2",
		"-duration", "150ms", "-warmup", "20ms", "-csv", csv}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"wakeup latency", "lag max", "conflated"} {
		if !strings.Contains(out, want) {
			t.Fatalf("watch figure output missing %q:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "lag_p50,lag_max,conflated,wakeups") {
		t.Fatalf("watch csv header missing backpressure columns: %q",
			strings.SplitN(string(blob), "\n", 2)[0])
	}
	// The watch series row (first data row) must show conflation: its
	// slow consumer parks through a fast publish cadence.
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if len(lines) < 2 {
		t.Fatalf("no csv rows:\n%s", string(blob))
	}
	fields := strings.Split(lines[1], ",")
	if len(fields) != 19 {
		t.Fatalf("csv row has %d fields, want 19: %q", len(fields), lines[1])
	}
	if fields[12] == "0" {
		t.Errorf("watch series conflated nothing: %q", lines[1])
	}
	// Publisher-overhead columns (appended after wakeups) must carry
	// real samples in the measured window.
	if fields[15] == "0" {
		t.Errorf("watch series recorded no publisher overhead: %q", lines[1])
	}
	// Flight-recorder stage columns: the traced watch series must show
	// cascade latency samples (fan tree wired through the recorder).
	if !strings.Contains(string(blob), "cascade_p99_ns,conflate_drops,flush_p99_ns") {
		t.Fatalf("watch csv header missing stage-breakdown columns: %q",
			strings.SplitN(string(blob), "\n", 2)[0])
	}
	if fields[16] == "0" {
		t.Errorf("watch series recorded no cascade latency: %q", lines[1])
	}
}
