package harness

import (
	"fmt"
	"strings"
	"time"

	"arcreg/internal/workload"
)

// Sizes swept by the paper's figures: 4KB, 32KB, 128KB.
var (
	PaperSizes = []int{4 * 1024, 32 * 1024, 128 * 1024}

	// Fig1Threads is the thread sweep on the 32-core physical machine.
	Fig1Threads = []int{2, 4, 8, 16, 24, 32}
	// Fig2Threads extends to the 40-vCPU virtualized host.
	Fig2Threads = []int{2, 4, 8, 16, 24, 32, 40}
	// Fig3Threads is the oversubscribed sweep (log-scale x in the paper).
	Fig3Threads = []int{1000, 1500, 2000, 2500, 3000, 3500, 4000}
)

// Figure describes one reproducible experiment family — one paper figure
// (or ablation table).
type Figure struct {
	// ID names the experiment ("fig1", "fig2", "fig3", …).
	ID string
	// Caption mirrors the paper's figure caption.
	Caption string
	// Algorithms are the compared register implementations, in column
	// order.
	Algorithms []Algorithm
	// Threads and Sizes span the sweep.
	Threads []int
	Sizes   []int
	// Writers is the writer-thread count per cell (0 = 1 writer, the
	// paper's (1,N) shape). The MN figure sets it to M; cells whose
	// thread count leaves no reader are recorded as infeasible.
	Writers int
	// WriterCounts optionally turns the writer count into a sweep axis:
	// every (size, threads, algorithm) cell is measured once per M, with
	// rows labeled by M (`arcbench -figure mn -writers 1,2,4,8`). Empty
	// means the single count in Writers.
	WriterCounts []int
	// Mode is the workload variant.
	Mode workload.Mode
	// StealFraction > 0 simulates the virtualized host.
	StealFraction float64
	// Pin requests CPU pinning in the physical regime.
	Pin bool
	// Duration and Warmup apply to every cell.
	Duration time.Duration
	Warmup   time.Duration
	// Seed fixes the steal schedules.
	Seed uint64
}

// Fig1 is Figure 1: throughput vs threads at each register size on the
// physical machine (no steal, pinned, dummy workload).
func Fig1() Figure {
	return Figure{
		ID:         "fig1",
		Caption:    "Throughput with different register size values (physical machine)",
		Algorithms: Algorithms(),
		Threads:    Fig1Threads,
		Sizes:      PaperSizes,
		Mode:       workload.Dummy,
		Pin:        true,
		Duration:   time.Second,
		Warmup:     200 * time.Millisecond,
		Seed:       1,
	}
}

// Fig2 is Figure 2: the same sweep on the simulated virtualized host
// (CPU-steal injection enabled, no pinning — vCPUs float).
func Fig2() Figure {
	return Figure{
		ID:            "fig2",
		Caption:       "Throughput with different register size values (virtualized host, CPU steal)",
		Algorithms:    Algorithms(),
		Threads:       Fig2Threads,
		Sizes:         PaperSizes,
		Mode:          workload.Dummy,
		StealFraction: 0.25,
		Duration:      time.Second,
		Warmup:        200 * time.Millisecond,
		Seed:          2,
	}
}

// Fig3 is Figure 3: heavily oversubscribed thread counts. RF is excluded
// — its 58-reader limit cannot host the sweep (§5: "RF could not be
// tested").
func Fig3() Figure {
	return Figure{
		ID:         "fig3",
		Caption:    "Throughput with largely-increased thread counts (time-sharing)",
		Algorithms: []Algorithm{AlgARC, AlgPeterson, AlgLock},
		Threads:    Fig3Threads,
		Sizes:      PaperSizes,
		Mode:       workload.Dummy,
		Duration:   time.Second,
		Warmup:     200 * time.Millisecond,
		Seed:       3,
	}
}

// FigProcessing is the paper's second experiment set: operations with
// attached processing latency (write generates data, read scans the
// buffer).
func FigProcessing() Figure {
	f := Fig1()
	f.ID = "processing"
	f.Caption = "Throughput with per-operation processing attached (physical machine)"
	f.Mode = workload.Processing
	return f
}

// FigAblation compares ARC against its own ablated variants, isolating
// the fast-path (R1–R2) and free-slot-hint (§3.4) optimizations.
func FigAblation() Figure {
	f := Fig1()
	f.ID = "ablation"
	f.Caption = "ARC ablations: fast path and free-slot hint contributions"
	f.Algorithms = []Algorithm{AlgARC, AlgARCNoFast, AlgARCNoHint}
	f.Sizes = []int{4 * 1024, 32 * 1024}
	return f
}

// FigExtensions compares ARC against the two modern non-paper baselines,
// seqlock (lock-free reads) and Left-Right (blocking writes), on the
// Figure 1 sweep. It extends the paper's comparison to the design points
// practitioners actually deploy today.
func FigExtensions() Figure {
	f := Fig1()
	f.ID = "extensions"
	f.Caption = "ARC vs seqlock and Left-Right (extension baselines)"
	f.Algorithms = []Algorithm{AlgARC, AlgSeqlock, AlgLeftRight}
	return f
}

// FigMN is the (M,N) composite experiment: a thread sweep at M=4 writers
// comparing the freshness-gated collect against its always-View ablation.
// The gated collect serves unchanged components from the per-handle cache
// (one atomic load each — one load total once the epoch gate validates —
// zero RMW, zero tag decoding), so its advantage grows with the read
// share of the workload; the ablation is the pre-optimization collect
// that performs M full ARC reads per scan. Setting WriterCounts (CLI:
// `-figure mn -writers 1,2,4,8`) sweeps M as an extra axis, with rows
// labeled by M.
func FigMN() Figure {
	return Figure{
		ID:         "mn",
		Caption:    "(M,N) composite: fresh-gated collect vs always-View ablation (M=4 writers)",
		Algorithms: []Algorithm{AlgMN, AlgMNNoGate},
		Threads:    []int{6, 8, 16, 32},
		Sizes:      []int{4 * 1024, 32 * 1024},
		Writers:    4,
		Mode:       workload.Dummy,
		Duration:   time.Second,
		Warmup:     200 * time.Millisecond,
		Seed:       4,
	}
}

// FigRMW is the RMW-accounting experiment behind the paper's §1/§5
// claim: RMW instructions per read for ARC, its fast-path ablation and
// RF. RF pays one RMW per read by construction; ARC's count falls with
// concurrency because more reads land on unchanged content. Render it
// with FigureData.RMWTable.
func FigRMW() Figure {
	return Figure{
		ID:         "rmw",
		Caption:    "RMW accounting: RMW instructions per read, ARC vs RF",
		Algorithms: []Algorithm{AlgARC, AlgARCNoFast, AlgRF},
		Threads:    []int{2, 4, 8, 16, 32},
		Sizes:      []int{4 * 1024},
		Mode:       workload.Dummy,
		Duration:   time.Second,
		Warmup:     200 * time.Millisecond,
	}
}

// FigRMWMN is the RMW-accounting experiment for the (M,N) composite:
// the fresh-gated collect against its always-View ablation at M=4
// writers. Composite ReadStats sum component RMW per composite read, so
// its rmw/read is directly comparable to FigRMW's; a read-dominated
// steady state shows ~0 for the gated collect. Render it with
// FigureData.RMWTable.
func FigRMWMN() Figure {
	f := FigRMW()
	f.ID = "rmw-mn"
	f.Caption = "RMW accounting: (M,N) fresh-gated collect vs always-View ablation"
	f.Algorithms = []Algorithm{AlgMN, AlgMNNoGate}
	f.Writers = 4
	return f
}

// FigureByID resolves a CLI name.
func FigureByID(id string) (Figure, error) {
	switch id {
	case "fig1", "1":
		return Fig1(), nil
	case "fig2", "2":
		return Fig2(), nil
	case "fig3", "3":
		return Fig3(), nil
	case "processing":
		return FigProcessing(), nil
	case "ablation":
		return FigAblation(), nil
	case "extensions":
		return FigExtensions(), nil
	case "mn":
		return FigMN(), nil
	}
	return Figure{}, fmt.Errorf("harness: unknown figure %q (fig1|fig2|fig3|processing|ablation|extensions|mn)", id)
}

// Scale shrinks a figure for smoke tests and CI: thread counts are capped,
// the sweep is thinned, and the timing windows reduced.
func (f Figure) Scale(maxThreads int, duration, warmup time.Duration) Figure {
	if maxThreads > 0 {
		var th []int
		for _, t := range f.Threads {
			if t <= maxThreads {
				th = append(th, t)
			}
		}
		if len(th) == 0 {
			th = []int{min(maxThreads, 2)}
			if maxThreads >= 2 {
				th = []int{maxThreads}
			}
		}
		f.Threads = th
	}
	if duration > 0 {
		f.Duration = duration
	}
	if warmup > 0 {
		f.Warmup = warmup
	}
	return f
}

// writerCounts resolves the writer sweep: WriterCounts when set, else
// the single Writers value (0 = the paper's 1-writer shape).
func (f Figure) writerCounts() []int {
	if len(f.WriterCounts) > 0 {
		return f.WriterCounts
	}
	w := f.Writers
	if w == 0 {
		w = 1
	}
	return []int{w}
}

// Cell is one measured point of a figure.
type Cell struct {
	Algorithm Algorithm
	Threads   int
	Size      int
	// Writers is the cell's writer count M (1 for the (1,N) figures).
	Writers int
	Result  Result
	Err     error // non-nil when the cell is infeasible (e.g. RF > 58)
}

// FigureData is the measured content of a figure: cells in sweep order.
type FigureData struct {
	Figure Figure
	Cells  []Cell
}

// Progress receives cell-completion callbacks (nil to disable).
type Progress func(done, total int, c Cell)

// Run measures every cell of the figure. Infeasible cells (reader counts
// beyond an algorithm's limit) are recorded with an error rather than
// aborting, mirroring the paper's "RF could not be tested" note.
func (f Figure) Run(progress Progress) (FigureData, error) {
	data := FigureData{Figure: f}
	wcs := f.writerCounts()
	total := len(f.Sizes) * len(wcs) * len(f.Threads) * len(f.Algorithms)
	done := 0
	for _, size := range f.Sizes {
		for _, writers := range wcs {
			for _, th := range f.Threads {
				for _, alg := range f.Algorithms {
					cell := Cell{Algorithm: alg, Threads: th, Size: size, Writers: writers}
					switch {
					case writers > 1 && !alg.IsMN():
						cell.Err = fmt.Errorf("%s is a (1,N) register; %d writers need mn", alg, writers)
					case th-writers > alg.MaxReaders():
						cell.Err = fmt.Errorf("%d readers exceed %s limit %d", th-writers, alg, alg.MaxReaders())
					case th < writers+1:
						cell.Err = fmt.Errorf("%d threads leave no reader beside %d writers", th, writers)
					default:
						res, err := Run(RunConfig{
							Algorithm:     alg,
							Threads:       th,
							Writers:       writers,
							ValueSize:     size,
							Mode:          f.Mode,
							Duration:      f.Duration,
							Warmup:        f.Warmup,
							StealFraction: f.StealFraction,
							Pin:           f.Pin,
							Seed:          f.Seed,
						})
						if err != nil {
							return data, fmt.Errorf("figure %s (%s, %d threads, M=%d, %dB): %w",
								f.ID, alg, th, writers, size, err)
						}
						cell.Result = res
					}
					data.Cells = append(data.Cells, cell)
					done++
					if progress != nil {
						progress(done, total, cell)
					}
				}
			}
		}
	}
	return data, nil
}

// Series extracts the (threads → Mops) series for one algorithm and
// size, in sweep order (grouped by writer count when M is swept).
func (d *FigureData) Series(alg Algorithm, size int) []Cell {
	var out []Cell
	for _, c := range d.Cells {
		if c.Algorithm == alg && c.Size == size {
			out = append(out, c)
		}
	}
	return out
}

// figColumns is the throughput figures' schema: one row per (size,
// threads, algorithm, M) cell, Mops/s plus the protocol counters.
var figColumns = []field[Cell]{
	key("size", "size", "%d", func(c Cell) any { return c.Size }),
	key("threads", "threads", "%d", func(c Cell) any { return c.Threads }),
	key("algorithm", "algorithm", "%s", func(c Cell) any { return c.Algorithm }),
	key("writers", "M", "%d", func(c Cell) any { return c.Writers }),
	metric("mops", "Mops/s", "%.4f", func(c Cell) any { return c.Result.Mops() }),
	metric("read_ops", "reads", "%d", func(c Cell) any { return c.Result.ReadOps }),
	metric("write_ops", "writes", "%d", func(c Cell) any { return c.Result.WriteOps }),
	metric("read_rmw", "read rmw", "%d", func(c Cell) any { return c.Result.ReadStat.RMW }),
	metric("read_fastpath", "fastpath", "%d", func(c Cell) any { return c.Result.ReadStat.FastPath }),
	metric("write_scan_steps", "scan steps", "%d", func(c Cell) any { return c.Result.WriteStat.ScanSteps }),
	metric("hint_hits", "hint hits", "%d", func(c Cell) any { return c.Result.WriteStat.HintHits }),
	metric("steal_events", "steals", "%d", func(c Cell) any { return c.Result.Steal.Steals }),
}

// rmwColumns is the RMW-accounting schema (FigRMW, FigRMWMN). Size and
// M lead it because -sizes and -writers can sweep them.
var rmwColumns = []field[Cell]{
	key("size", "size", "%d", func(c Cell) any { return c.Size }),
	key("threads", "threads", "%d", func(c Cell) any { return c.Threads }),
	key("algorithm", "algorithm", "%s", func(c Cell) any { return c.Algorithm }),
	key("writers", "M", "%d", func(c Cell) any { return c.Writers }),
	key("waitfree", "waitfree", "%s", func(c Cell) any { return c.Algorithm.WaitFreeLabel() }),
	metric("reads", "reads", "%d", func(c Cell) any { return c.Result.ReadStat.Ops }),
	metric("rmw_per_read", "rmw/read", "%.4f", func(c Cell) any { return c.Result.RMWPerRead() }),
	metric("fastpath_pct", "fastpath%", "%.1f", func(c Cell) any { return 100 * c.Result.FastPathShare() }),
	metric("rmw_per_write", "rmw/write", "%.2f", func(c Cell) any { return c.Result.RMWPerWrite() }),
}

// Table is the figure's result: one row per cell, Mops/s (the paper's
// y-axis) plus the protocol counters.
func (d *FigureData) Table() Table { return d.table(figColumns) }

// RMWTable is the figure's result in the RMW-accounting schema.
func (d *FigureData) RMWTable() Table { return d.table(rmwColumns) }

func (d *FigureData) table(fields []field[Cell]) Table {
	f := d.Figure
	sizes := make([]string, len(f.Sizes))
	for i, s := range f.Sizes {
		sizes[i] = fmtSize(s)
	}
	writers := strings.ReplaceAll(strings.Trim(fmt.Sprint(f.writerCounts()), "[]"), " ", ",")
	settings := fmt.Sprintf("mode=%s sizes=%s writers=%s steal=%.0f%% duration=%v",
		f.Mode, strings.Join(sizes, ","), writers, f.StealFraction*100, f.Duration)
	return newTable(f.ID, f.Caption, settings, fields, d.Cells, func(c Cell) error { return c.Err })
}

func fmtSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
