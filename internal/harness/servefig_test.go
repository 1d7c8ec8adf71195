package harness

import (
	"strings"
	"testing"
	"time"
)

// TestServeFigureSmoke runs a tiny serve figure against a real loopback
// server and checks the contract the CI smoke also greps for: at least
// two client-count rows, traffic in every cell, watch deliveries, and
// the full CSV column set.
func TestServeFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback serving figure")
	}
	f := FigServe().Scale(2, 150*time.Millisecond, 30*time.Millisecond)
	if len(f.Clients) < 2 {
		t.Fatalf("scaled figure kept %d client counts, want >= 2", len(f.Clients))
	}
	data, err := f.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Cells) != len(f.Clients) {
		t.Fatalf("got %d cells, want %d", len(data.Cells), len(f.Clients))
	}
	var observed uint64
	for _, c := range data.Cells {
		if c.Result.Gets == 0 {
			t.Errorf("clients=%d: no GETs completed in the window", c.Clients)
		}
		if c.Result.Rate() <= 0 {
			t.Errorf("clients=%d: rate %.0f, want > 0", c.Clients, c.Result.Rate())
		}
		if c.Result.Puts == 0 {
			t.Errorf("clients=%d: writer published nothing", c.Clients)
		}
		observed += c.Result.Observed
	}
	if observed == 0 {
		t.Error("no watch client observed a publication in any cell")
	}

	var tbl, csv strings.Builder
	data.Table().WriteText(&tbl)
	if !strings.Contains(tbl.String(), "get req/s") {
		t.Errorf("table missing rate column:\n%s", tbl.String())
	}
	data.Table().WriteCSV(&csv)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+len(data.Cells) {
		t.Fatalf("CSV has %d lines, want header + %d rows", len(lines), len(data.Cells))
	}
	for _, col := range []string{"figure", "clients", "get_rps", "get_p50_ns", "get_p99_ns", "obs_p50_ns", "obs_p99_ns", "shed", "conflated"} {
		if !strings.Contains(lines[0], col) {
			t.Errorf("CSV header missing %q: %s", col, lines[0])
		}
	}
	if !strings.HasPrefix(lines[1], "serve,") {
		t.Errorf("CSV row should start with the figure id: %s", lines[1])
	}
}
