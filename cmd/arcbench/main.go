// Command arcbench regenerates the ARC paper's evaluation (§5, Figures
// 1–3) plus the RMW-accounting, ablation and beyond-paper experiments
// on the local machine.
//
// Regenerate a whole figure:
//
//	arcbench -figure fig1
//	arcbench -figure fig2            # virtualized host: CPU-steal simulation
//	arcbench -figure fig3            # 1000–4000 threads, time-sharing
//	arcbench -figure processing      # §5's second workload
//	arcbench -figure ablation        # ARC vs its own disabled optimizations
//	arcbench -figure extensions      # ARC vs seqlock and Left-Right
//	arcbench -figure mn              # (M,N) composite: fresh-gated collect vs ablation
//	arcbench -figure map             # sharded snapshot map: keys × threads
//	arcbench -figure rmw             # RMW instructions per read, ARC vs RF vs (M,N)
//	arcbench -figure latency         # per-operation latency quantiles
//	arcbench -figure watch           # publish→observe wakeup latency
//	arcbench -figure serve           # HTTP loopback: GET req/s + publish→observe latency
//	arcbench -figure all             # everything above, in order
//
// Every experiment prints one long-form table: a title, a settings
// line, then one line per measured cell, with n/a in the metric
// columns of an infeasible cell. -csv appends the same rows to a file,
// each led by the figure ID, with infeasible cells skipped.
//
// Sweeps can be overridden (-threads, -sizes, -duration, -steal,
// -writers) and shrunk for smoke runs (-quick); explicit -threads/-sizes
// overrides win over the -quick caps. A single deployment, measured at
// the first -threads value, can be run directly:
//
//	arcbench -alg arc -threads 16 -size 32768 -duration 2s
//	arcbench -alg mn -writers 4 -threads 8 -size 4096
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"arcreg/internal/harness"
	"arcreg/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "arcbench:", err)
		os.Exit(1)
	}
}

// options holds the parsed command line.
type options struct {
	figure, alg, mode, csvPath                       string
	threads, sizes, writers, keys, watchers, clients intList
	size, latency, shards, delEvery, snapEvery       int
	fanArity, fanDepth                               int
	duration, warmup, pubEvery                       time.Duration
	stealF, zipf                                     float64
	quick                                            bool
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("arcbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.figure, "figure", "", "figure to regenerate: fig1|fig2|fig3|processing|ablation|extensions|mn|map|rmw|latency|watch|serve|all")
	fs.StringVar(&o.alg, "alg", "arc", "algorithm for single runs: arc|rf|peterson|lock|seqlock|leftright|mn|mn-nogate|map|arc-nofastpath|arc-nohint")
	fs.Var(&o.threads, "threads", "comma-separated thread counts (overrides the figure's sweep); single runs and -figure latency use the first (default 4)")
	fs.Var(&o.sizes, "sizes", "comma-separated register sizes in bytes (overrides the sweep)")
	fs.IntVar(&o.size, "size", 4096, "register size for single runs and -figure latency")
	fs.Var(&o.writers, "writers", "writer thread count(s): one value for single runs, a comma list sweeps M on the mn and rmw figures (e.g. 1,2,4,8)")
	fs.StringVar(&o.mode, "mode", "dummy", "workload: dummy|processing")
	fs.DurationVar(&o.duration, "duration", time.Second, "measurement window per cell")
	fs.DurationVar(&o.warmup, "warmup", 200*time.Millisecond, "warmup before each window")
	fs.Float64Var(&o.stealF, "steal", -1, "CPU-steal fraction override (0..0.9; -1 keeps the figure default)")
	fs.BoolVar(&o.quick, "quick", false, "shrink sweeps and windows for a smoke run")
	fs.StringVar(&o.csvPath, "csv", "", "also append CSV rows to this file")
	fs.IntVar(&o.latency, "latency-sample", 0, "record every Nth op latency in single runs (0=off)")
	fs.Var(&o.keys, "keys", "comma-separated key counts for the map figure (overrides the sweep)")
	fs.Float64Var(&o.zipf, "zipf", -1, "map figure key-popularity Zipf exponent (≤1 uniform; -1 keeps the default)")
	fs.IntVar(&o.shards, "shards", 0, "map figure shard count (0 keeps the default)")
	fs.IntVar(&o.delEvery, "delete-every", -1, "map figure delete-mix: every Nth writer op deletes/re-creates a lifecycle key (0 disables; -1 keeps the default)")
	fs.IntVar(&o.snapEvery, "snapshot-every", -1, "map figure snapshot mix: every Nth reader op takes a multi-key Snapshot (0 disables; -1 keeps the default)")
	fs.Var(&o.watchers, "watchers", "comma-separated watcher counts for the watch figure, k suffix = thousands (e.g. 1k,10k; overrides the sweep)")
	fs.Var(&o.clients, "clients", "comma-separated HTTP client counts for the serve figure (overrides the sweep)")
	fs.DurationVar(&o.pubEvery, "publish-every", 0, "watch figure writer cadence (0 keeps the default)")
	fs.IntVar(&o.fanArity, "fan-arity", -1, "watch figure wakeup-tree arity (0 drops the tree series; -1 keeps the default)")
	fs.IntVar(&o.fanDepth, "fan-depth", -1, "watch figure wakeup-tree depth (-1 keeps the default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Fprintf(out, "arcbench: GOMAXPROCS=%d NumCPU=%d\n\n", runtime.GOMAXPROCS(0), runtime.NumCPU())

	if o.figure == "" {
		return singleRun(out, o)
	}

	ids := []string{o.figure}
	if o.figure == "all" {
		ids = []string{"fig1", "fig2", "fig3", "processing", "ablation", "extensions", "mn", "map", "rmw", "latency", "watch", "serve"}
	}
	var csv *os.File
	if o.csvPath != "" {
		f, err := os.OpenFile(o.csvPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		csv = f
	}
	for _, id := range ids {
		tables, err := experiment(id, o)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := t.WriteText(out); err != nil {
				return err
			}
			if csv != nil {
				if err := t.WriteCSV(csv); err != nil {
					return fmt.Errorf("write %s: %w", o.csvPath, err)
				}
			}
		}
	}
	if csv != nil {
		return csv.Close()
	}
	return nil
}

// experiment runs one -figure id and returns its result tables.
func experiment(id string, o options) ([]harness.Table, error) {
	switch id {
	case "rmw":
		var tables []harness.Table
		for _, fig := range []harness.Figure{harness.FigRMW(), harness.FigRMWMN()} {
			data, err := customize(fig, o).Run(progress[harness.Cell](fig.ID))
			if err != nil {
				return nil, err
			}
			tables = append(tables, data.RMWTable())
		}
		return tables, nil
	case "latency":
		rep, err := runLatency(o)
		return []harness.Table{rep.Table()}, err
	case "map":
		fig, err := mapFigure(o)
		if err != nil {
			return nil, err
		}
		data, err := fig.Run(progress[harness.MapCell](fig.ID))
		return []harness.Table{data.Table()}, err
	case "watch":
		fig := watchFigure(o)
		data, err := fig.Run(progress[harness.WatchCell](fig.ID))
		return []harness.Table{data.Table()}, err
	case "serve":
		fig := serveFigure(o)
		data, err := fig.Run(progress[harness.ServeCell](fig.ID))
		return []harness.Table{data.Table()}, err
	}
	fig, err := harness.FigureByID(id)
	if err != nil {
		return nil, err
	}
	fig = customize(fig, o)
	data, err := fig.Run(progress[harness.Cell](fig.ID))
	return []harness.Table{data.Table()}, err
}

// progress reports cell completion on stderr; tables go to stdout.
func progress[C any](id string) func(done, total int, c C) {
	return func(done, total int, _ C) {
		fmt.Fprintf(os.Stderr, "[%s %d/%d]\n", id, done, total)
	}
}

// customize applies CLI overrides to a figure definition. Explicit
// -threads/-sizes/-duration/-warmup win over -quick's shrinking (a 1-CPU
// host would otherwise clip an explicitly requested sweep).
func customize(fig harness.Figure, o options) harness.Figure {
	if o.stealF >= 0 {
		fig.StealFraction = o.stealF
	}
	// -writers only applies to figures that sweep multiple writers (the
	// MN figures); forcing it onto the (1,N) figures would fail every
	// cell, which matters for `-figure all -writers N`. A single value
	// replaces the figure's M; a list turns M into a sweep axis.
	if len(o.writers) > 0 && fig.Writers > 0 {
		if len(o.writers) == 1 {
			fig.Writers = o.writers[0]
			fig.WriterCounts = nil
		} else {
			fig.WriterCounts = o.writers
		}
	}
	duration, warmup := o.duration, o.warmup
	if o.quick {
		maxTh := 2 * runtime.NumCPU()
		if fig.ID == "fig3" {
			maxTh = 64
			fig.Threads = []int{16, 32, 64}
		}
		fig = fig.Scale(maxTh, 0, 0)
		if maxW := maxWriters(fig); maxW > 1 {
			// Keep at least one reader beside the writers; goroutine
			// oversubscription is fine for a smoke run.
			fig.Threads = []int{maxW + 1, maxW + 4}
		}
		if len(fig.Sizes) > 2 {
			fig.Sizes = fig.Sizes[:2]
		}
		duration = min(duration, 200*time.Millisecond)
		warmup = min(warmup, 50*time.Millisecond)
	}
	fig.Duration = duration
	fig.Warmup = warmup
	if len(o.threads) > 0 {
		fig.Threads = o.threads
	}
	if len(o.sizes) > 0 {
		fig.Sizes = o.sizes
	}
	return fig
}

// maxWriters reports the largest writer count a figure will deploy.
func maxWriters(fig harness.Figure) int {
	m := fig.Writers
	for _, w := range fig.WriterCounts {
		if w > m {
			m = w
		}
	}
	return m
}

// valueSize resolves -sizes for the figures that measure one value size
// per run: the first entry wins.
func valueSize(id string, sizes []int, def int) int {
	if len(sizes) == 0 {
		return def
	}
	if len(sizes) > 1 {
		fmt.Fprintf(os.Stderr, "arcbench: %s figure measures one value size per run; using %d\n", id, sizes[0])
	}
	return sizes[0]
}

// mapFigure configures the keyed-workload figure (the regmap sharded
// snapshot map): thread sweep × key-count sweep, Zipf key popularity,
// with optional delete-mix (-delete-every) and snapshot (-snapshot-every)
// workloads. The shared -sizes and -steal overrides apply here too.
func mapFigure(o options) (harness.MapFigure, error) {
	fig := harness.FigMap()
	m, err := workload.ParseMode(o.mode)
	if err != nil {
		return fig, err
	}
	fig.Mode = m
	if o.shards > 0 {
		fig.Shards = o.shards
	}
	if o.delEvery >= 0 {
		fig.DeleteEvery = o.delEvery
	}
	if o.snapEvery >= 0 {
		fig.SnapshotEvery = o.snapEvery
	}
	if o.zipf >= 0 {
		fig.Zipf = o.zipf
	}
	if o.stealF >= 0 {
		fig.StealFraction = o.stealF
	}
	fig.ValueSize = valueSize(fig.ID, o.sizes, fig.ValueSize)
	if o.quick {
		fig = fig.Scale(2*runtime.NumCPU(), min(o.duration, 200*time.Millisecond), min(o.warmup, 50*time.Millisecond))
	} else {
		fig.Duration = o.duration
		fig.Warmup = o.warmup
	}
	if len(o.threads) > 0 {
		fig.Threads = o.threads
	}
	if len(o.keys) > 0 {
		fig.Keys = o.keys
	}
	return fig, nil
}

// watchFigure configures the wakeup-latency figure: publish→observe
// latency of parked watchers vs fixed-interval pollers, swept over
// watcher counts (the notify subsystem's measurement; see DESIGN.md §8).
func watchFigure(o options) harness.WatchFigure {
	fig := harness.FigWatch()
	if o.pubEvery > 0 {
		fig.PublishEvery = o.pubEvery
	}
	if o.fanArity >= 0 {
		fig.FanArity = o.fanArity
	}
	if o.fanDepth >= 0 {
		fig.FanDepth = o.fanDepth
	}
	fig.ValueSize = valueSize(fig.ID, o.sizes, fig.ValueSize)
	if o.quick {
		fig = fig.Scale(4, min(o.duration, 200*time.Millisecond), min(o.warmup, 50*time.Millisecond))
	} else {
		fig.Duration = o.duration
		fig.Warmup = o.warmup
	}
	if len(o.watchers) > 0 {
		fig.Watchers = o.watchers
	}
	return fig
}

// serveFigure configures the HTTP serving figure: a real arcserve server
// on a loopback listener, swept over concurrent GET client counts,
// reporting sustained req/s and publish→client-observe latency through
// the SSE watch path (see DESIGN.md §11).
func serveFigure(o options) harness.ServeFigure {
	fig := harness.FigServe()
	if o.pubEvery > 0 {
		fig.PublishEvery = o.pubEvery
	}
	fig.ValueSize = valueSize(fig.ID, o.sizes, fig.ValueSize)
	if o.quick {
		fig = fig.Scale(2*runtime.NumCPU(), min(o.duration, 300*time.Millisecond), min(o.warmup, 50*time.Millisecond))
	} else {
		fig.Duration = o.duration
		fig.Warmup = o.warmup
	}
	if len(o.clients) > 0 {
		fig.Clients = o.clients
	}
	return fig
}

// runLatency samples per-op latency for every algorithm at the first
// -threads value (default 4).
func runLatency(o options) (harness.LatencyReport, error) {
	duration, warmup := o.duration, o.warmup
	if o.quick {
		duration = 200 * time.Millisecond
		warmup = 50 * time.Millisecond
	}
	algs := []harness.Algorithm{
		harness.AlgARC, harness.AlgRF, harness.AlgPeterson,
		harness.AlgLock, harness.AlgSeqlock, harness.AlgLeftRight,
		// The keyed store, measured through its single-key adapter (the
		// full directory-probe-then-value-read path), so map tail
		// latency is tracked alongside the raw algorithms.
		harness.AlgMap,
	}
	return harness.RunLatencyComparison(algs, o.threads.first(4), o.size, max(o.stealF, 0), duration, warmup)
}

func singleRun(out io.Writer, o options) error {
	a, err := harness.ParseAlgorithm(o.alg)
	if err != nil {
		return err
	}
	m, err := workload.ParseMode(o.mode)
	if err != nil {
		return err
	}
	writers := o.writers.first(0)
	if writers == 0 && a.IsMN() {
		writers = 4
	}
	cfg := harness.RunConfig{
		Algorithm:     a,
		Threads:       o.threads.first(4),
		Writers:       writers,
		ValueSize:     o.size,
		Mode:          m,
		Duration:      o.duration,
		Warmup:        o.warmup,
		LatencySample: o.latency,
	}
	if a.IsMN() && cfg.Threads < cfg.Writers+1 {
		cfg.Threads = cfg.Writers + 1
	}
	if o.stealF > 0 {
		cfg.StealFraction = o.stealF
	}
	res, err := harness.Run(cfg)
	if err != nil {
		return err
	}
	if cfg.Writers > 1 {
		fmt.Fprintf(out, "%s threads=%d writers=%d size=%d mode=%s steal=%.0f%%\n",
			a, cfg.Threads, cfg.Writers, cfg.ValueSize, m, cfg.StealFraction*100)
	} else {
		fmt.Fprintf(out, "%s threads=%d size=%d mode=%s steal=%.0f%%\n",
			a, cfg.Threads, cfg.ValueSize, m, cfg.StealFraction*100)
	}
	fmt.Fprintf(out, "  throughput: %s\n", res.Throughput())
	fmt.Fprintf(out, "  reads:  %d ops, %d RMW (%.4f/op), %d fast-path (%.1f%%)\n",
		res.ReadOps, res.ReadStat.RMW, res.RMWPerRead(),
		res.ReadStat.FastPath, 100*res.FastPathShare())
	fmt.Fprintf(out, "  writes: %d ops, %d RMW, %d scan steps (%.2f/op), %d hint hits\n",
		res.WriteOps, res.WriteStat.RMW, res.WriteStat.ScanSteps,
		float64(res.WriteStat.ScanSteps)/float64(max(res.WriteStat.Ops, 1)), res.WriteStat.HintHits)
	if res.Steal.Steals > 0 {
		fmt.Fprintf(out, "  steal:  %d events, %v stolen\n", res.Steal.Steals, res.Steal.Stolen)
	}
	if res.ReadLat.Count() > 0 {
		fmt.Fprintf(out, "  read latency:  %s\n", res.ReadLat.String())
		fmt.Fprintf(out, "  write latency: %s\n", res.WriteLat.String())
	}
	return nil
}

// intList is a comma-separated integer flag; a k/K suffix means
// thousands (1k = 1000, 10k = 10000), the way watcher sweeps are quoted.
type intList []int

func (l *intList) String() string { return fmt.Sprint([]int(*l)) }

func (l *intList) Set(s string) error {
	v, err := parseInts(s)
	*l = v
	return err
}

// first returns the list's first value, or def when the flag is unset.
func (l intList) first(def int) int {
	if len(l) == 0 {
		return def
	}
	return l[0]
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		mult := 1
		if s := strings.TrimRight(part, "kK"); len(s) == len(part)-1 {
			part, mult = s, 1000
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, n*mult)
	}
	return out, nil
}
