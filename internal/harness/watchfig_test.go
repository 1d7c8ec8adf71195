package harness

import (
	"strings"
	"testing"
	"time"
)

// TestRunWatchModes smoke-runs both subscriber disciplines and checks
// the cells are internally consistent: publications flow, every change
// observation carries a latency sample, and the watch series observes
// at least as many changes as... (on a 1-CPU host schedules vary, so
// the assertions stay structural, not quantitative).
func TestRunWatchModes(t *testing.T) {
	for _, cfg := range []WatchRunConfig{
		{Mode: ModeWatch, Watchers: 2, PublishEvery: 200 * time.Microsecond,
			ValueSize: 32, Duration: 100 * time.Millisecond, Warmup: 20 * time.Millisecond},
		{Mode: ModeWatch, Watchers: 4, FanArity: 2, FanDepth: 2,
			PublishEvery: 200 * time.Microsecond, ValueSize: 32,
			Duration: 100 * time.Millisecond, Warmup: 20 * time.Millisecond},
		{Mode: ModePoll, PollEvery: 100 * time.Microsecond, Watchers: 2,
			PublishEvery: 200 * time.Microsecond, ValueSize: 32,
			Duration: 100 * time.Millisecond, Warmup: 20 * time.Millisecond},
	} {
		label := string(cfg.Mode)
		if cfg.FanArity > 0 {
			label += "-tree"
		}
		res, err := RunWatch(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Published == 0 {
			t.Errorf("%s: no publications in the measured window", label)
		}
		if res.Observed == 0 {
			t.Errorf("%s: watchers observed nothing", label)
		}
		if res.Latency.Count() != res.Observed {
			t.Errorf("%s: %d latency samples for %d observations", label, res.Latency.Count(), res.Observed)
		}
		if res.PubOverhead.Count() != res.Published {
			t.Errorf("%s: %d publisher-overhead samples for %d publications",
				label, res.PubOverhead.Count(), res.Published)
		}
	}
}

// TestRunWatchSlowConsumerBackpressure pins the backpressure columns:
// a deliberately slow consumer against a fast publish cadence must
// show conflation (publications skipped forever) and non-zero lag in
// the mid-window samples, while delivery still makes progress.
func TestRunWatchSlowConsumerBackpressure(t *testing.T) {
	res, err := RunWatch(WatchRunConfig{
		Mode:          ModeWatch,
		Watchers:      2,
		SlowConsumers: 1,
		SlowDelay:     5 * time.Millisecond,
		PublishEvery:  100 * time.Microsecond,
		ValueSize:     32,
		Duration:      300 * time.Millisecond,
		Warmup:        20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Published == 0 || res.Observed == 0 {
		t.Fatalf("no traffic: published=%d observed=%d", res.Published, res.Observed)
	}
	if res.Conflated == 0 {
		t.Errorf("slow consumer conflated nothing (published=%d observed=%d)",
			res.Published, res.Observed)
	}
	if res.LagMax == 0 {
		t.Errorf("slow consumer showed no lag in any mid-window sample (published=%d)",
			res.Published)
	}
	if res.Wakeups == 0 {
		t.Error("parked watchers took no wakeups")
	}
}

// TestWatchFigureRender runs the scaled figure end to end and checks
// the table carries every series.
func TestWatchFigureRender(t *testing.T) {
	fig := FigWatch().Scale(2, 50*time.Millisecond, 10*time.Millisecond)
	data, err := fig.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var tbl, csv strings.Builder
	data.Table().WriteText(&tbl)
	data.Table().WriteCSV(&csv)
	for _, want := range []string{"watch", "watch-flat", "poll-100µs", "poll-1ms", "lat p99", "pub p99", "lag max", "conflated"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("table missing %q:\n%s", want, tbl.String())
		}
	}
	if got := strings.Count(csv.String(), "\n"); got != len(data.Cells)+1 {
		t.Errorf("CSV has %d lines, want %d cells + header", got, len(data.Cells))
	}
	// The CI smoke job greps this exact substring from the header; the
	// pub columns must extend it, never break it.
	if !strings.Contains(csv.String(), "lag_p50,lag_max,conflated,wakeups,pub_p50_ns,pub_p99_ns") {
		t.Errorf("CSV header lost its stable column prefix:\n%s", csv.String())
	}
	// Both watch disciplines must run in the default figure: the tree
	// series and the flat baseline are a comparison, not alternatives.
	var tree, flat int
	for _, c := range data.Cells {
		if c.Mode != ModeWatch {
			continue
		}
		if c.FanArity > 0 {
			tree++
		} else {
			flat++
		}
	}
	if tree == 0 || flat == 0 {
		t.Errorf("figure ran %d tree and %d flat watch cells, want both", tree, flat)
	}
}

// TestWatchFigurePollClamp pins the poll-series cap: a watcher count
// past maxPollWatchers keeps its watch cells (parked watchers are
// cheap) but drops the poll cells — a many-thousand-goroutine sleep
// loop measures the scheduler, not the subsystem.
func TestWatchFigurePollClamp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two cells with >4096 parked watchers")
	}
	fig := FigWatch()
	fig.Watchers = []int{2, maxPollWatchers + 1}
	fig.Duration = 30 * time.Millisecond
	fig.Warmup = 5 * time.Millisecond
	data, err := fig.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[WatchMode]map[int]int{ModeWatch: {}, ModePoll: {}}
	for _, c := range data.Cells {
		cells[c.Mode][c.Watchers]++
	}
	if got := cells[ModePoll][2]; got != len(fig.PollEvery) {
		t.Errorf("small watcher count ran %d poll cells, want %d", got, len(fig.PollEvery))
	}
	if got := cells[ModePoll][maxPollWatchers+1]; got != 0 {
		t.Errorf("oversized watcher count ran %d poll cells, want 0", got)
	}
	if got := cells[ModeWatch][maxPollWatchers+1]; got != 2 {
		t.Errorf("oversized watcher count ran %d watch cells, want 2 (tree + flat)", got)
	}
}
