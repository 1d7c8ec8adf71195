package harness

// The keyed-workload experiment: deployments against the regmap sharded
// snapshot map (one writer, N−1 readers, K keys with Zipf popularity),
// swept over key counts × thread counts. This is the "large-scale data
// sharing" figure the paper's title promises and its evaluation never
// shows: the register composed into an addressable store, with the
// fresh-gated Get keeping the hot path at zero RMW instructions no
// matter how many keys the map holds.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"arcreg/internal/membuf"
	"arcreg/internal/metrics"
	"arcreg/internal/regmap"
	"arcreg/internal/steal"
	"arcreg/internal/workload"
)

// MapRunConfig describes one measured keyed deployment — one cell of the
// map figure.
type MapRunConfig struct {
	// Threads is the total worker count: 1 writer + Threads−1 readers.
	Threads int
	// Keys is the number of pre-populated keys.
	Keys int
	// Shards is the map's shard count (0 = regmap default).
	Shards int
	// ValueSize is the per-key value size in bytes.
	ValueSize int
	// Zipf is the key-popularity exponent (>1 = skewed, else uniform).
	Zipf float64
	// MissEvery > 0 makes every Nth Get target an absent key.
	MissEvery int
	// ChurnEvery > 0 makes every Nth Set create a brand-new key,
	// re-publishing that shard's directory under the readers.
	ChurnEvery int
	// DeleteEvery > 0 enables the delete-mix: every Nth writer operation
	// deletes or re-creates a lifecycle-pool key, publishing tombstones
	// under the readers.
	DeleteEvery int
	// SnapshotEvery > 0 makes every Nth reader operation a full
	// multi-key Snapshot instead of a Get.
	SnapshotEvery int
	// Mode selects dummy or processing operation bodies.
	Mode workload.Mode
	// Duration is the measurement window; Warmup precedes it.
	Duration time.Duration
	Warmup   time.Duration
	// StealFraction > 0 enables the virtualized-platform simulation
	// (same injector as the register deployments).
	StealFraction float64
	// StealSlice overrides the steal event length (0 = default).
	StealSlice time.Duration
	// Pin binds workers to CPUs round-robin when supported.
	Pin bool
	// LatencySample records every Nth operation's latency (0 = off).
	LatencySample int
	// Seed fixes the key-popularity and steal schedules.
	Seed uint64
	// DynamicValues selects exact-size allocation per Set.
	DynamicValues bool
}

func (c *MapRunConfig) defaults() error {
	if c.Threads < 2 {
		return fmt.Errorf("harness: map run needs ≥ 2 threads (1 writer + readers), got %d", c.Threads)
	}
	if c.Keys <= 0 {
		c.Keys = 64
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 1024
	}
	if c.ValueSize < membuf.MinPayload {
		c.ValueSize = membuf.MinPayload
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Warmup < 0 {
		return errors.New("harness: negative warmup")
	}
	if c.Warmup == 0 {
		c.Warmup = 100 * time.Millisecond
	}
	return nil
}

// MapResult aggregates one keyed run.
type MapResult struct {
	Config  MapRunConfig
	GetOps  uint64
	SetOps  uint64
	Elapsed time.Duration
	// ReadStat aggregates every reader handle's map-level counters; the
	// headline ratio is ReadStat.RMW / ReadStat.Ops — rmw/get.
	ReadStat regmap.ReadStats
	// WriteStat is the map's publish-side aggregate (value + directory).
	WriteStat regmap.WriteStats
	// KeysCreated counts churn and lifecycle keys added during the run.
	KeysCreated uint64
	// KeysDeleted counts tombstones published during the run.
	KeysDeleted uint64
	// Snapshots counts multi-key Snapshots taken during the run.
	Snapshots uint64
	// Steal aggregates injected CPU-steal events (virtualized runs).
	Steal steal.VCPUStats
	// GetLat and SetLat hold sampled operation latencies when
	// LatencySample is set.
	GetLat metrics.Histogram
	SetLat metrics.Histogram
	// Sink defeats dead-code elimination.
	Sink uint64
}

// Throughput returns the combined Get+Set rate over the measured window.
func (r MapResult) Throughput() metrics.Throughput {
	return metrics.Throughput{Ops: r.GetOps + r.SetOps, Elapsed: r.Elapsed}
}

// Mops is shorthand for Throughput().Mops().
func (r MapResult) Mops() float64 { return r.Throughput().Mops() }

// RMWPerGet is the average RMW instructions per Get — ~0 when the
// fresh-gate holds through the map layer.
func (r MapResult) RMWPerGet() float64 { return ratio(r.ReadStat.RMW, r.ReadStat.Ops) }

// RunMap executes one measured keyed deployment: the map is
// pre-populated with cfg.Keys keys, then 1 writer Sets and Threads−1
// readers Get under Zipf popularity for the configured window.
func RunMap(cfg MapRunConfig) (MapResult, error) {
	if err := cfg.defaults(); err != nil {
		return MapResult{}, err
	}
	readers := cfg.Threads - 1

	m, err := regmap.New(regmap.Config{
		Shards:        cfg.Shards,
		MaxReaders:    readers,
		MaxValueSize:  cfg.ValueSize,
		DynamicValues: cfg.DynamicValues,
	})
	if err != nil {
		return MapResult{}, err
	}
	keys := make([]string, cfg.Keys)
	seed := make([]byte, cfg.ValueSize)
	membuf.Encode(seed, 0)
	for i := range keys {
		keys[i] = workload.KeyName(i)
		if err := m.Set(keys[i], seed); err != nil {
			return MapResult{}, fmt.Errorf("harness: populate %q: %w", keys[i], err)
		}
	}

	env, err := newLoopEnv(cfg.Threads, cfg.Pin, cfg.LatencySample, steal.Config{
		Fraction: cfg.StealFraction,
		Slice:    cfg.StealSlice,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return MapResult{}, err
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		res      MapResult
		workErrs []error
	)
	res.Config = cfg

	worker := func(id int, body func() error, cleanup func(), done func(ops uint64, lat *metrics.Histogram)) {
		defer wg.Done()
		if cleanup != nil {
			defer cleanup()
		}
		ops, lat, vs, err := env.loop(id, body)
		mu.Lock()
		defer mu.Unlock()
		res.Steal.Steals += vs.Steals
		res.Steal.Stolen += vs.Stolen
		res.Steal.Ticks += vs.Ticks
		if err != nil {
			workErrs = append(workErrs, fmt.Errorf("map worker %d: %w", id, err))
			return
		}
		done(ops, &lat)
	}

	// Worker 0: the map's writer.
	sw := workload.NewMapSetWork(m, keys,
		workload.NewKeyChooser(cfg.Keys, cfg.Zipf, cfg.Seed), cfg.Mode, cfg.ValueSize, cfg.ChurnEvery).
		WithDeletes(cfg.DeleteEvery, 0)
	wg.Add(1)
	go worker(0, sw.Do, nil, func(ops uint64, lat *metrics.Histogram) {
		res.SetOps += ops
		res.SetLat.Merge(lat)
		res.KeysCreated += sw.Created()
		res.KeysDeleted += sw.Deleted()
	})

	// Workers 1..Threads−1: readers, one map handle each.
	for i := 0; i < readers; i++ {
		rd, err := m.NewReader()
		if err != nil {
			env.abort()
			wg.Wait()
			return MapResult{}, fmt.Errorf("harness: map reader %d: %w", i, err)
		}
		rw := workload.NewMapGetWork(rd, keys,
			workload.NewKeyChooser(cfg.Keys, cfg.Zipf, cfg.Seed+uint64(i)+1), cfg.Mode, cfg.MissEvery).
			WithSnapshots(cfg.SnapshotEvery)
		wg.Add(1)
		go worker(1+i, rw.Do,
			func() { rd.Close() },
			func(ops uint64, lat *metrics.Histogram) {
				res.GetOps += ops
				res.GetLat.Merge(lat)
				res.Sink += rw.Sink()
				st := rd.Stats()
				res.ReadStat.Add(st.ReadStats)
				res.ReadStat.Misses += st.Misses
				res.ReadStat.DirRefreshes += st.DirRefreshes
				res.ReadStat.Snapshots += st.Snapshots
				res.ReadStat.SnapshotRetries += st.SnapshotRetries
				res.ReadStat.Repairs += st.Repairs
				res.Snapshots += rw.Snapshots()
			})
	}

	elapsed := env.window(cfg.Warmup, cfg.Duration)
	wg.Wait()

	if len(workErrs) > 0 {
		return MapResult{}, errors.Join(workErrs...)
	}
	res.Elapsed = elapsed
	res.WriteStat = m.WriteStats()
	return res, nil
}

// MapFigure describes the keyed-workload sweep: key counts × thread
// counts at a fixed value size and popularity skew.
type MapFigure struct {
	ID      string
	Caption string
	// Threads and Keys span the sweep.
	Threads []int
	Keys    []int
	// ValueSize, Zipf, Shards, MissEvery, ChurnEvery, DeleteEvery,
	// SnapshotEvery, Mode apply to every cell.
	ValueSize     int
	Zipf          float64
	Shards        int
	MissEvery     int
	ChurnEvery    int
	DeleteEvery   int
	SnapshotEvery int
	Mode          workload.Mode
	// StealFraction > 0 simulates the virtualized host in every cell.
	StealFraction float64
	// Pin requests CPU pinning in the physical regime.
	Pin bool
	// Duration and Warmup apply to every cell.
	Duration time.Duration
	Warmup   time.Duration
	// Seed fixes key-popularity schedules.
	Seed uint64
	// DynamicValues selects exact-size value allocation.
	DynamicValues bool
}

// FigMap is the keyed-workload figure: thread sweep × key-count sweep on
// the sharded snapshot map, Zipf(1.2) key popularity, with light
// directory churn and a light delete-mix so the sweep also covers key
// creation and tombstone publication under readers.
func FigMap() MapFigure {
	return MapFigure{
		ID:         "map",
		Caption:    "Sharded snapshot map: keyed Gets under Zipf popularity (regmap)",
		Threads:    []int{2, 4, 8, 16},
		Keys:       []int{16, 256, 4096},
		ValueSize:  1024,
		Zipf:       1.2,
		Shards:     16,
		ChurnEvery: 4096,
		// Prime, so it almost never collides with ChurnEvery ticks — on a
		// collision the delete-mix branch wins and the churn key is
		// skipped (see workload.MapSetWork.Do).
		DeleteEvery: 2731,
		Mode:        workload.Dummy,
		Duration:    time.Second,
		Warmup:      200 * time.Millisecond,
		Seed:        5,
	}
}

// Scale shrinks the figure for smoke tests and CI, mirroring
// Figure.Scale: thread counts capped, key sweep thinned, windows
// reduced.
func (f MapFigure) Scale(maxThreads int, duration, warmup time.Duration) MapFigure {
	if maxThreads > 0 {
		var th []int
		for _, t := range f.Threads {
			if t <= maxThreads {
				th = append(th, t)
			}
		}
		if len(th) == 0 {
			th = []int{max(2, maxThreads)}
		}
		f.Threads = th
	}
	if len(f.Keys) > 2 {
		f.Keys = f.Keys[:2]
	}
	if duration > 0 {
		f.Duration = duration
	}
	if warmup > 0 {
		f.Warmup = warmup
	}
	return f
}

// MapCell is one measured point of the map figure.
type MapCell struct {
	Threads int
	Keys    int
	Result  MapResult
	Err     error
}

// MapFigureData is the measured content of the map figure.
type MapFigureData struct {
	Figure MapFigure
	Cells  []MapCell
}

// Run measures every cell of the figure.
func (f MapFigure) Run(progress func(done, total int, c MapCell)) (MapFigureData, error) {
	data := MapFigureData{Figure: f}
	total := len(f.Keys) * len(f.Threads)
	done := 0
	for _, keys := range f.Keys {
		for _, th := range f.Threads {
			cell := MapCell{Threads: th, Keys: keys}
			res, err := RunMap(MapRunConfig{
				Threads:       th,
				Keys:          keys,
				Shards:        f.Shards,
				ValueSize:     f.ValueSize,
				Zipf:          f.Zipf,
				MissEvery:     f.MissEvery,
				ChurnEvery:    f.ChurnEvery,
				DeleteEvery:   f.DeleteEvery,
				SnapshotEvery: f.SnapshotEvery,
				Mode:          f.Mode,
				StealFraction: f.StealFraction,
				Pin:           f.Pin,
				Duration:      f.Duration,
				Warmup:        f.Warmup,
				Seed:          f.Seed,
				DynamicValues: f.DynamicValues,
			})
			if err != nil {
				return data, fmt.Errorf("figure %s (%d keys, %d threads): %w", f.ID, keys, th, err)
			}
			cell.Result = res
			data.Cells = append(data.Cells, cell)
			done++
			if progress != nil {
				progress(done, total, cell)
			}
		}
	}
	return data, nil
}

// mapColumns is the map figure's schema: one row per (keys, threads)
// cell.
var mapColumns = []field[MapCell]{
	key("keys", "keys", "%d", func(c MapCell) any { return c.Keys }),
	key("threads", "threads", "%d", func(c MapCell) any { return c.Threads }),
	metric("mops", "Mops/s", "%.4f", func(c MapCell) any { return c.Result.Mops() }),
	metric("get_ops", "gets", "%d", func(c MapCell) any { return c.Result.GetOps }),
	metric("set_ops", "sets", "%d", func(c MapCell) any { return c.Result.SetOps }),
	metric("rmw", "rmw", "%d", func(c MapCell) any { return c.Result.ReadStat.RMW }),
	metric("rmw_per_get", "rmw/get", "%.4f", func(c MapCell) any { return c.Result.RMWPerGet() }),
	metric("fastpath", "fastpath", "%d", func(c MapCell) any { return c.Result.ReadStat.FastPath }),
	metric("misses", "misses", "%d", func(c MapCell) any { return c.Result.ReadStat.Misses }),
	metric("dir_refreshes", "dir refreshes", "%d", func(c MapCell) any { return c.Result.ReadStat.DirRefreshes }),
	metric("keys_created", "created", "%d", func(c MapCell) any { return c.Result.KeysCreated }),
	metric("keys_deleted", "deleted", "%d", func(c MapCell) any { return c.Result.KeysDeleted }),
	metric("snapshots", "snapshots", "%d", func(c MapCell) any { return c.Result.Snapshots }),
	metric("snapshot_retries", "snap retries", "%d", func(c MapCell) any { return c.Result.ReadStat.SnapshotRetries }),
	metric("compactions", "compactions", "%d", func(c MapCell) any { return c.Result.WriteStat.Compactions }),
	metric("dir_bytes", "dir bytes", "%d", func(c MapCell) any { return c.Result.WriteStat.DirBytes }),
	metric("repairs", "repairs", "%d", func(c MapCell) any { return c.Result.ReadStat.Repairs }),
}

// Table is the figure's result: one row per cell, Mops/s and rmw/get
// plus the map's lifecycle counters.
func (d *MapFigureData) Table() Table {
	f := d.Figure
	settings := fmt.Sprintf("mode=%s value=%s zipf=%.2f shards=%d churn=1/%d deletes=1/%d snapshots=1/%d steal=%.0f%% duration=%v",
		f.Mode, fmtSize(f.ValueSize), f.Zipf, f.Shards, f.ChurnEvery, f.DeleteEvery, f.SnapshotEvery, f.StealFraction*100, f.Duration)
	return newTable(f.ID, f.Caption, settings, mapColumns, d.Cells, func(c MapCell) error { return c.Err })
}
