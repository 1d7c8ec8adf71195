// Package harness runs the paper's evaluation (§5): it deploys one writer
// thread and N−1 reader threads against a chosen register implementation,
// measures throughput over a timed window, and renders the series behind
// every figure — thread sweeps across register sizes on a "physical"
// deployment (Figure 1), the same sweeps under simulated CPU steal
// standing in for the 40-vCPU virtualized host (Figure 2), and heavily
// oversubscribed thread counts (Figure 3). It also runs the
// RMW-accounting and ablation experiments that quantify ARC's two
// optimizations (the R1–R2 fast path and the §3.4 free-slot hint).
//
// Measurement discipline: workers spin on the operation loop and count
// into goroutine-local state; a shared phase word (warmup → measure →
// stop) delimits the window; all aggregation happens after the workers
// join. Throughput is reported in Mops/s, the unit of the paper's plots.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"arcreg/internal/affinity"
	"arcreg/internal/arc"
	"arcreg/internal/history"
	"arcreg/internal/leftright"
	"arcreg/internal/lockreg"
	"arcreg/internal/membuf"
	"arcreg/internal/metrics"
	"arcreg/internal/mnreg"
	"arcreg/internal/peterson"
	"arcreg/internal/register"
	"arcreg/internal/regmap"
	"arcreg/internal/rf"
	"arcreg/internal/seqlock"
	"arcreg/internal/steal"
	"arcreg/internal/word"
	"arcreg/internal/workload"
)

// Algorithm names a register implementation (or an ARC ablation variant).
type Algorithm string

// The benchmarkable algorithms. The two arc-no* variants are ablations of
// the paper's optimizations, used by the ablation experiment only.
const (
	AlgARC       Algorithm = "arc"
	AlgARCNoFast Algorithm = "arc-nofastpath"
	AlgARCNoHint Algorithm = "arc-nohint"
	AlgRF        Algorithm = "rf"
	AlgPeterson  Algorithm = "peterson"
	AlgLock      Algorithm = "lock"
	// Extension baselines beyond the paper's comparison set (see the
	// seqlock and leftright package docs for their progress properties).
	AlgSeqlock   Algorithm = "seqlock"
	AlgLeftRight Algorithm = "leftright"
	// The (M,N) composite built from M ARC components, with the
	// freshness-gated collect and its always-View ablation. These are the
	// only algorithms that support RunConfig.Writers > 1.
	AlgMN       Algorithm = "mn"
	AlgMNNoGate Algorithm = "mn-nogate"
	// The regmap sharded snapshot map, adapted to the (1,N) contract
	// through a single key — every operation runs the full map path
	// (shard routing, directory probe, key lookup, value register), so
	// the conformance battery and single runs measure the map's real
	// overhead versus raw ARC.
	AlgMap Algorithm = "map"
)

// Algorithms lists the standard comparison set of the paper's Figures 1–2.
func Algorithms() []Algorithm {
	return []Algorithm{AlgARC, AlgRF, AlgPeterson, AlgLock}
}

// ParseAlgorithm converts a CLI string.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch Algorithm(s) {
	case AlgARC, AlgARCNoFast, AlgARCNoHint, AlgRF, AlgPeterson, AlgLock,
		AlgSeqlock, AlgLeftRight, AlgMN, AlgMNNoGate, AlgMap:
		return Algorithm(s), nil
	}
	return "", fmt.Errorf("harness: unknown algorithm %q", s)
}

// IsMN reports whether the algorithm is an (M,N) composite variant.
func (a Algorithm) IsMN() bool { return a == AlgMN || a == AlgMNNoGate }

// MaxReaders reports the algorithm's architectural reader bound: 58 for
// RF, 2³²−2 for the ARC variants, administrative limits for the rest.
func (a Algorithm) MaxReaders() int {
	switch a {
	case AlgRF:
		return rf.MaxReaders
	case AlgPeterson:
		return peterson.MaxReaders
	case AlgLock:
		return lockreg.MaxReaders
	case AlgSeqlock:
		return seqlock.MaxReaders
	case AlgLeftRight:
		return leftright.MaxReaders
	default:
		return int(word.ARCMaxReaders)
	}
}

// Caps reports the named algorithm's capability set (register.Caps).
// Capabilities are constants per implementation, published through
// CapabilityReporter; this constructs a minimal instance to read them,
// so the summary tables surface Caps.WaitFree* without hand-maintained
// duplicates.
func (a Algorithm) Caps() register.Caps {
	cfg := register.Config{MaxReaders: 1, MaxValueSize: 64}
	if a.IsMN() {
		r, err := mnreg.New(mnreg.Config{Writers: 2, Readers: 1, MaxValueSize: 64}, mnreg.Options{})
		if err != nil {
			return register.Caps{}
		}
		return r.Caps()
	}
	r, err := NewRegister(a, cfg)
	if err != nil {
		return register.Caps{}
	}
	return register.CapsOf(r)
}

// WaitFreeLabel renders the algorithm's wait-freedom capabilities for
// the summary tables: "r+w" (both sides wait-free), "r" or "w" (one
// side), "-" (neither).
func (a Algorithm) WaitFreeLabel() string {
	c := a.Caps()
	switch {
	case c.WaitFreeRead && c.WaitFreeWrite:
		return "r+w"
	case c.WaitFreeRead:
		return "r"
	case c.WaitFreeWrite:
		return "w"
	}
	return "-"
}

// NewRegister constructs the named register.
func NewRegister(alg Algorithm, cfg register.Config) (register.Register, error) {
	switch alg {
	case AlgARC:
		return arc.New(cfg, arc.Options{})
	case AlgARCNoFast:
		return arc.New(cfg, arc.Options{DisableFastPath: true})
	case AlgARCNoHint:
		return arc.New(cfg, arc.Options{DisableFreeHint: true})
	case AlgRF:
		return rf.New(cfg)
	case AlgPeterson:
		return peterson.New(cfg)
	case AlgLock:
		return lockreg.New(cfg)
	case AlgSeqlock:
		return seqlock.New(cfg)
	case AlgLeftRight:
		return leftright.New(cfg)
	case AlgMap:
		return regmap.NewSingleKeyRegister(cfg)
	}
	return nil, fmt.Errorf("harness: unknown algorithm %q", alg)
}

// RunConfig describes one measured deployment — one cell of a figure.
type RunConfig struct {
	Algorithm Algorithm
	// Threads is the total worker count: Writers writers + the rest
	// readers (1 writer + Threads−1 readers in the paper's deployment
	// shape). Minimum Writers+1.
	Threads int
	// Writers is the number of writer threads. 0 defaults to 1, the
	// paper's (1,N) shape. Values above 1 require an (M,N) algorithm
	// (AlgMN / AlgMNNoGate), which deploys an M-component composite.
	Writers int
	// ValueSize is the register value size in bytes (4KB/32KB/128KB in
	// the paper).
	ValueSize int
	// Mode selects dummy (max contention) or processing workloads.
	Mode workload.Mode
	// Duration is the measurement window; Warmup precedes it.
	Duration time.Duration
	Warmup   time.Duration
	// StealFraction > 0 enables the virtualized-platform simulation.
	StealFraction float64
	// StealSlice overrides the steal event length (0 = default).
	StealSlice time.Duration
	// Pin binds workers to CPUs round-robin when supported and when
	// Threads ≤ NumCPU (the paper's physical-machine regime).
	Pin bool
	// LatencySample records every Nth operation's latency (0 = off).
	LatencySample int
	// Seed makes steal schedules reproducible.
	Seed uint64
}

func (c *RunConfig) defaults() error {
	if c.Writers == 0 {
		c.Writers = 1
	}
	if c.Writers < 0 {
		return fmt.Errorf("harness: negative writer count %d", c.Writers)
	}
	if c.Writers > 1 && !c.Algorithm.IsMN() {
		return fmt.Errorf("harness: %s is a (1,N) register; %d writers need the mn algorithm",
			c.Algorithm, c.Writers)
	}
	if c.Threads < c.Writers+1 {
		return fmt.Errorf("harness: need ≥ %d threads (%d writers + readers), got %d",
			c.Writers+1, c.Writers, c.Threads)
	}
	if c.ValueSize <= 0 {
		c.ValueSize = register.DefaultMaxValueSize
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
	if readers := c.Threads - c.Writers; readers > c.Algorithm.MaxReaders() {
		return fmt.Errorf("harness: %d readers exceed %s's limit of %d",
			readers, c.Algorithm, c.Algorithm.MaxReaders())
	}
	return nil
}

// deployment abstracts the register under test over the (1,N) and (M,N)
// shapes: the writer endpoints (one per writer worker) and a reader
// factory. Writer endpoints that implement register.StatWriter and reader
// handles that implement register.StatReader contribute to the Result's
// aggregate stats.
type deployment struct {
	writers   []register.Writer
	newReader func() (register.Reader, error)
}

func newDeployment(cfg RunConfig, seed []byte) (*deployment, error) {
	readers := cfg.Threads - cfg.Writers
	if cfg.Algorithm.IsMN() {
		reg, err := mnreg.New(mnreg.Config{
			Writers:      cfg.Writers,
			Readers:      readers,
			MaxValueSize: cfg.ValueSize,
			Initial:      seed,
		}, mnreg.Options{DisableFreshGate: cfg.Algorithm == AlgMNNoGate})
		if err != nil {
			return nil, err
		}
		d := &deployment{newReader: func() (register.Reader, error) { return reg.NewReader() }}
		for i := 0; i < cfg.Writers; i++ {
			w, err := reg.NewWriter()
			if err != nil {
				return nil, fmt.Errorf("harness: mn writer %d: %w", i, err)
			}
			d.writers = append(d.writers, w)
		}
		return d, nil
	}
	reg, err := NewRegister(cfg.Algorithm, register.Config{
		MaxReaders:   readers,
		MaxValueSize: cfg.ValueSize,
		Initial:      seed,
	})
	if err != nil {
		return nil, err
	}
	return &deployment{writers: []register.Writer{reg.Writer()}, newReader: reg.NewReader}, nil
}

// Result aggregates one run.
type Result struct {
	Config    RunConfig
	ReadOps   uint64
	WriteOps  uint64
	Elapsed   time.Duration
	ReadStat  register.ReadStats
	WriteStat register.WriteStats
	Steal     steal.VCPUStats
	ReadLat   metrics.Histogram
	WriteLat  metrics.Histogram
	// Sink defeats dead-code elimination across the measurement; it also
	// lets callers confirm reads observed real data.
	Sink uint64
}

// Throughput returns the combined read+write rate in the measured window —
// the quantity on the paper's y-axes.
func (r Result) Throughput() metrics.Throughput {
	return metrics.Throughput{Ops: r.ReadOps + r.WriteOps, Elapsed: r.Elapsed}
}

// Mops is shorthand for Throughput().Mops().
func (r Result) Mops() float64 { return r.Throughput().Mops() }

// RMWPerRead is the average RMW instructions per read. The RMW ratios
// divide the protocol counters by their own op counts: both cover the
// same operations (warmup included), unlike the measured-window ReadOps.
func (r Result) RMWPerRead() float64 { return ratio(r.ReadStat.RMW, r.ReadStat.Ops) }

// FastPathShare is the fraction of reads served with zero RMW.
func (r Result) FastPathShare() float64 { return ratio(r.ReadStat.FastPath, r.ReadStat.Ops) }

// RMWPerWrite is the average RMW instructions per write.
func (r Result) RMWPerWrite() float64 { return ratio(r.WriteStat.RMW, r.WriteStat.Ops) }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// run phases.
const (
	phaseWarmup = iota
	phaseMeasure
	phaseStop
)

// loopEnv is the shared measured-operation machinery used by Run and
// RunMap: the phase word, the all-spawned start gate, the steal
// injector, CPU pinning and latency sampling. Extracting it keeps the
// measurement discipline (spawn gating, warmup window, op counting)
// identical across the register and map deployments.
type loopEnv struct {
	phase         atomic.Uint32
	start         chan struct{}
	clock         *history.Clock
	inj           *steal.Injector
	pin           bool
	latencySample int
}

func newLoopEnv(threads int, pin bool, latencySample int, stealCfg steal.Config) (*loopEnv, error) {
	inj, err := steal.NewInjector(stealCfg)
	if err != nil {
		return nil, err
	}
	return &loopEnv{
		start:         make(chan struct{}),
		clock:         history.NewClock(),
		inj:           inj,
		pin:           pin && affinity.Available() && threads <= runtime.NumCPU(),
		latencySample: latencySample,
	}, nil
}

// loop drives one worker: block until every worker exists (without this
// gate, spawning degenerates at oversubscribed thread counts — the
// first spawned workers saturate the CPUs and the spawning goroutine
// waits out their scheduler quanta between spawns), pin if requested,
// then spin on body until phaseStop, counting ops and sampling latency
// inside the measured window only.
func (e *loopEnv) loop(id int, body func() error) (ops uint64, lat metrics.Histogram, vs steal.VCPUStats, err error) {
	<-e.start
	if e.pin {
		if release, perr := affinity.Pin(id % runtime.NumCPU()); perr == nil {
			defer release()
		}
	}
	vcpu := e.inj.VCPU(id)
	for {
		p := e.phase.Load()
		if p == phaseStop {
			break
		}
		sample := e.latencySample > 0 && p == phaseMeasure &&
			ops%uint64(e.latencySample) == 0
		var t0 int64
		if sample {
			t0 = e.clock.Now()
		}
		if err = body(); err != nil {
			return ops, lat, vcpu.Stats(), err
		}
		if sample {
			lat.RecordSince(t0, e.clock.Now())
		}
		if p == phaseMeasure {
			ops++
		}
		vcpu.Tick()
	}
	return ops, lat, vcpu.Stats(), nil
}

// window releases the workers, sleeps out warmup + duration, stops the
// run and reports the measured window's length.
func (e *loopEnv) window(warmup, duration time.Duration) time.Duration {
	close(e.start)
	time.Sleep(warmup)
	t0 := time.Now()
	e.phase.Store(phaseMeasure)
	time.Sleep(duration)
	e.phase.Store(phaseStop)
	return time.Since(t0)
}

// abort stops a run whose setup failed before the window opened.
func (e *loopEnv) abort() {
	e.phase.Store(phaseStop)
	close(e.start)
}

// Run executes one measured deployment.
func Run(cfg RunConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	readers := cfg.Threads - cfg.Writers

	seed := make([]byte, cfg.ValueSize)
	membuf.Encode(seed, 0)
	dep, err := newDeployment(cfg, seed)
	if err != nil {
		return Result{}, err
	}

	env, err := newLoopEnv(cfg.Threads, cfg.Pin, cfg.LatencySample, steal.Config{
		Fraction: cfg.StealFraction,
		Slice:    cfg.StealSlice,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return Result{}, err
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards the aggregates below after workers finish
		res      Result
		workErrs []error
	)
	res.Config = cfg

	worker := func(id int, body func() error, cleanup func(), done func(ops uint64, lat *metrics.Histogram, vs steal.VCPUStats)) {
		defer wg.Done()
		if cleanup != nil {
			// Runs on every exit, including the error path: a reader
			// abandoning a pinned lock view would deadlock the writer.
			defer cleanup()
		}
		ops, lat, vs, err := env.loop(id, body)
		if err != nil {
			mu.Lock()
			workErrs = append(workErrs, fmt.Errorf("worker %d: %w", id, err))
			mu.Unlock()
			return
		}
		done(ops, &lat, vs)
	}

	// Writers (workers 0..Writers-1); one for the paper's (1,N) shape, M
	// for the (M,N) composite.
	for i, wr := range dep.writers {
		wr := wr
		ww := workload.NewWriterWork(wr, cfg.Mode, cfg.ValueSize)
		wg.Add(1)
		go worker(i, ww.Do, nil, func(ops uint64, lat *metrics.Histogram, vs steal.VCPUStats) {
			mu.Lock()
			defer mu.Unlock()
			res.WriteOps += ops
			res.WriteLat.Merge(lat)
			res.Steal.Steals += vs.Steals
			res.Steal.Stolen += vs.Stolen
			res.Steal.Ticks += vs.Ticks
			if sw, ok := wr.(register.StatWriter); ok {
				res.WriteStat.Add(sw.WriteStats())
			}
		})
	}

	// Readers (workers Writers..Threads-1). Handles and workload state are
	// created here, serially, before any worker runs.
	for i := 0; i < readers; i++ {
		rd, err := dep.newReader()
		if err != nil {
			env.abort()
			wg.Wait()
			return Result{}, fmt.Errorf("harness: reader %d: %w", i, err)
		}
		rw := workload.NewReaderWork(rd, cfg.Mode, cfg.ValueSize)
		wg.Add(1)
		go worker(cfg.Writers+i, rw.Do,
			func() {
				// Release the handle on every exit: lock-register views
				// pin the read lock until the next handle operation, and
				// a pinned view left behind would block the writer's
				// final iteration forever.
				rd.Close()
			},
			func(ops uint64, lat *metrics.Histogram, vs steal.VCPUStats) {
				mu.Lock()
				defer mu.Unlock()
				res.ReadOps += ops
				res.ReadLat.Merge(lat)
				res.Sink += rw.Sink()
				res.Steal.Steals += vs.Steals
				res.Steal.Stolen += vs.Stolen
				res.Steal.Ticks += vs.Ticks
				if sr, ok := rd.(register.StatReader); ok {
					res.ReadStat.Add(sr.ReadStats())
				}
			})
	}

	elapsed := env.window(cfg.Warmup, cfg.Duration)
	wg.Wait()

	if len(workErrs) > 0 {
		return Result{}, errors.Join(workErrs...)
	}
	res.Elapsed = elapsed
	return res, nil
}
