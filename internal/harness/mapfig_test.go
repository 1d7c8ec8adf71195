package harness

// Tests for the keyed map deployment: RunMap smoke with stats plumbing,
// steal injection and latency sampling through the shared loop
// machinery, and the map figure's sweep and rendering.

import (
	"strings"
	"testing"
	"time"

	"arcreg/internal/workload"
)

func TestRunMapSmoke(t *testing.T) {
	res, err := RunMap(MapRunConfig{
		Threads:       3,
		Keys:          32,
		ValueSize:     256,
		Zipf:          1.2,
		MissEvery:     16,
		ChurnEvery:    64,
		Mode:          workload.Dummy,
		Duration:      150 * time.Millisecond,
		Warmup:        20 * time.Millisecond,
		LatencySample: 64,
		Seed:          9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GetOps == 0 || res.SetOps == 0 {
		t.Fatalf("no ops measured: gets=%d sets=%d", res.GetOps, res.SetOps)
	}
	if res.ReadStat.Ops == 0 {
		t.Error("map ReadStats not aggregated")
	}
	if res.ReadStat.Misses == 0 {
		t.Error("MissEvery produced no misses")
	}
	if res.WriteStat.Keys < 32 {
		t.Errorf("WriteStats.Keys = %d, want ≥ 32", res.WriteStat.Keys)
	}
	if res.KeysCreated == 0 {
		t.Error("ChurnEvery created no keys")
	}
	if res.GetLat.Count() == 0 || res.SetLat.Count() == 0 {
		t.Error("latency sampling recorded nothing")
	}
	if res.Sink == 0 {
		t.Error("sink empty")
	}
	// The fresh gate must hold through the map layer even under churn:
	// a read-dominated steady state stays well under 1 rmw/get.
	if got := res.RMWPerGet(); got > 0.5 {
		t.Errorf("rmw/get = %.4f, fresh gate not effective", got)
	}
}

func TestRunMapSteal(t *testing.T) {
	res, err := RunMap(MapRunConfig{
		Threads:       2,
		Keys:          8,
		ValueSize:     256,
		StealFraction: 0.4,
		Duration:      120 * time.Millisecond,
		Warmup:        20 * time.Millisecond,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steal.Steals == 0 {
		t.Error("steal injection produced no events")
	}
	if res.GetOps == 0 {
		t.Error("no reads under steal")
	}
}

func TestRunMapValidation(t *testing.T) {
	if _, err := RunMap(MapRunConfig{Threads: 1}); err == nil {
		t.Error("1 thread accepted (no reader)")
	}
	if _, err := RunMap(MapRunConfig{Threads: 2, Warmup: -time.Second}); err == nil {
		t.Error("negative warmup accepted")
	}
}

func TestMapFigureRunAndRender(t *testing.T) {
	fig := FigMap()
	fig.Threads = []int{2}
	fig.Keys = []int{4, 16}
	fig.ValueSize = 256
	fig.Duration = 30 * time.Millisecond
	fig.Warmup = 5 * time.Millisecond
	data, err := fig.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(data.Cells))
	}
	var tbl strings.Builder
	data.Table().WriteText(&tbl)
	for _, want := range []string{"== map:", "rmw/get", "zipf=1.20"} {
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, tbl.String())
		}
	}
	rowKeys := map[any]bool{}
	for _, r := range data.Table().Rows {
		rowKeys[r.Values[0]] = true
	}
	for _, k := range []int{4, 16} {
		if !rowKeys[k] {
			t.Fatalf("table has no keys=%d row:\n%s", k, tbl.String())
		}
	}
	var csv strings.Builder
	data.Table().WriteCSV(&csv)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 { // header + 2 cells
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[0], "figure,keys,threads,mops") {
		t.Fatalf("csv header = %q", lines[0])
	}
	if !strings.HasSuffix(lines[0], ",compactions,dir_bytes,repairs") {
		t.Fatalf("csv header missing compaction columns: %q", lines[0])
	}
}

func TestMapFigureScale(t *testing.T) {
	fig := FigMap().Scale(4, 40*time.Millisecond, 10*time.Millisecond)
	for _, th := range fig.Threads {
		if th > 4 {
			t.Errorf("Scale left thread count %d", th)
		}
	}
	if len(fig.Keys) > 2 {
		t.Errorf("Scale left %d key counts", len(fig.Keys))
	}
	if fig.Duration != 40*time.Millisecond {
		t.Errorf("Scale duration = %v", fig.Duration)
	}
}
