package harness

import (
	"errors"
	"strings"
	"testing"
	"time"

	"arcreg/internal/metrics"
	"arcreg/internal/register"
	"arcreg/internal/regmap"
	"arcreg/internal/steal"
)

func oneSample(ns uint64) metrics.Histogram {
	var h metrics.Histogram
	h.Record(ns)
	return h
}

// TestCSVSchema pins every experiment's full CSV header and the format
// of one row built from fixed values: downstream plotting scripts and
// CI's greps index these columns by name and position.
func TestCSVSchema(t *testing.T) {
	fig := FigureData{
		Figure: Figure{ID: "fig1"},
		Cells: []Cell{
			{Algorithm: AlgARC, Threads: 4, Size: 256, Writers: 1, Result: Result{
				ReadOps: 3000000, WriteOps: 1000000, Elapsed: 2 * time.Second,
				ReadStat:  register.ReadStats{Ops: 10, RMW: 5, FastPath: 6},
				WriteStat: register.WriteStats{Ops: 4, RMW: 4, ScanSteps: 7, HintHits: 8},
				Steal:     steal.VCPUStats{Steals: 9},
			}},
			{Algorithm: AlgRF, Threads: 100, Size: 256, Writers: 1, Err: errors.New("infeasible")},
		},
	}
	rmw := fig
	rmw.Figure.ID = "rmw"
	mapData := MapFigureData{
		Figure: MapFigure{ID: "map"},
		Cells: []MapCell{{Threads: 2, Keys: 16, Result: MapResult{
			GetOps: 1500000, SetOps: 500000, Elapsed: time.Second,
			ReadStat: regmap.ReadStats{
				ReadStats: register.ReadStats{Ops: 8, RMW: 2, FastPath: 6},
				Misses:    3, DirRefreshes: 4, SnapshotRetries: 5, Repairs: 6,
			},
			WriteStat:   regmap.WriteStats{Compactions: 7, DirBytes: 8},
			KeysCreated: 9, KeysDeleted: 10, Snapshots: 11,
		}}},
	}
	watch := WatchData{
		Figure: WatchFigure{ID: "watch", PublishEvery: 200 * time.Microsecond},
		Cells: []WatchCell{{Mode: ModePoll, PollEvery: 100 * time.Microsecond, Watchers: 4, Result: WatchResult{
			Published: 100, Observed: 90, Latency: oneSample(1500),
			LagP50: 1, LagMax: 2, Conflated: 3, Wakeups: 4,
			PubOverhead: oneSample(700), CascadeLat: oneSample(300), ConflateDrops: 5,
		}}},
	}
	serve := ServeData{
		Figure: ServeFigure{ID: "serve", Watchers: 2, Keys: 16, ValueSize: 64},
		Cells: []ServeCell{{Clients: 4, Result: ServeResult{
			Gets: 5000, GetLat: oneSample(2000), Puts: 10,
			Observed: 20, ObsLat: oneSample(9000), Shed: 1, Conflated: 2,
			CascadeLat: oneSample(300), FlushLat: oneSample(800), ConflateDrops: 3,
			Elapsed: 500 * time.Millisecond,
		}}},
	}
	latency := LatencyReport{Rows: []LatencyRow{
		{Algorithm: AlgLock, Threads: 3, ReadLat: oneSample(100), WriteLat: oneSample(200)},
	}}

	for _, tc := range []struct {
		name  string
		table Table
		want  string
	}{
		{"fig", fig.Table(),
			"figure,size,threads,algorithm,writers,mops,read_ops,write_ops,read_rmw,read_fastpath,write_scan_steps,hint_hits,steal_events\n" +
				"fig1,256,4,arc,1,2.0000,3000000,1000000,5,6,7,8,9\n"},
		{"map", mapData.Table(),
			"figure,keys,threads,mops,get_ops,set_ops,rmw,rmw_per_get,fastpath,misses,dir_refreshes,keys_created,keys_deleted,snapshots,snapshot_retries,compactions,dir_bytes,repairs\n" +
				"map,16,2,2.0000,1500000,500000,2,0.2500,6,3,4,9,10,11,5,7,8,6\n"},
		{"watch", watch.Table(),
			"figure,series,watchers,publish_every_us,poll_every_us,published,observed,lat_p50_ns,lat_p99_ns,lat_max_ns,lag_p50,lag_max,conflated,wakeups,pub_p50_ns,pub_p99_ns,cascade_p99_ns,conflate_drops,flush_p99_ns\n" +
				"watch,poll-100µs,4,200.0,100.0,100,90,1500,1500,1500,1,2,3,4,700,700,300,5,0\n"},
		{"serve", serve.Table(),
			"figure,clients,watchers,keys,value_size,window_ms,gets,get_rps,get_p50_ns,get_p99_ns,puts,observed,obs_p50_ns,obs_p99_ns,obs_max_ns,shed,conflated,cascade_p99_ns,conflate_drops,flush_p99_ns\n" +
				"serve,4,2,16,64,500,5000,10000,2000,2000,10,20,9000,9000,9000,1,2,300,3,800\n"},
		{"rmw", rmw.RMWTable(),
			"figure,size,threads,algorithm,writers,waitfree,reads,rmw_per_read,fastpath_pct,rmw_per_write\n" +
				"rmw,256,4,arc,1,r+w,10,0.5000,60.0,1.00\n"},
		{"latency", latency.Table(),
			"figure,algorithm,waitfree,threads,read_p50_ns,read_p99_ns,read_max_ns,write_p50_ns,write_p99_ns,write_max_ns\n" +
				"latency,lock,-,3,100,100,100,200,200,200\n"},
	} {
		var csv strings.Builder
		if err := tc.table.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if csv.String() != tc.want {
			t.Errorf("%s CSV:\n got %q\nwant %q", tc.name, csv.String(), tc.want)
		}
	}

	// The text rendering keeps the infeasible cell, marked n/a.
	var text strings.Builder
	if err := fig.Table().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "n/a") || !strings.Contains(text.String(), " rf ") {
		t.Errorf("text rendering lost the infeasible rf row:\n%s", text.String())
	}
}
