package arcreg_test

// One benchmark per paper table/figure, plus the per-operation
// micro-benchmarks behind them. The figure benchmarks drive the same
// harness as cmd/arcbench with scaled-down sweeps (this is `go test
// -bench`, not the full evaluation — run `arcbench -figure all` for the
// paper-sized tables); each reports the ARC throughput of its headline
// cell as a custom metric alongside ns/op.
//
// Index (see DESIGN.md for the full experiment-to-benchmark mapping):
//
//	BenchmarkFig1a/b/c      — Figure 1: thread sweep at 4/32/128KB, physical
//	BenchmarkFig2a/b/c      — Figure 2: same under CPU-steal (virtualized)
//	BenchmarkFig3a/b/c      — Figure 3: oversubscribed thread counts
//	BenchmarkProcessing     — §5 second workload (ops with processing)
//	BenchmarkRMWCount       — RMW-per-read accounting, ARC vs RF vs (M,N)
//	BenchmarkAblationFastPath / BenchmarkAblationFreeHint
//	BenchmarkRead*/BenchmarkWrite* — per-op costs per algorithm
//	BenchmarkMN*, BenchmarkFigMN — the (M,N) extension and its fresh-gate
//	ablation (BenchmarkMNReadNoFreshGate)

import (
	"runtime"
	"testing"
	"time"

	"arcreg"
	"arcreg/internal/harness"
	"arcreg/internal/membuf"
	"arcreg/internal/register"
	"arcreg/internal/workload"
)

// benchWindow is the per-cell measurement window for figure benchmarks.
const benchWindow = 60 * time.Millisecond

// runFigure executes a scaled figure once per b.Loop iteration and
// reports the ARC (or first-algorithm) throughput at the largest thread
// count as the headline metric.
func runFigure(b *testing.B, fig harness.Figure) {
	b.Helper()
	var headline float64
	for b.Loop() {
		data, err := fig.Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		alg := fig.Algorithms[0]
		series := data.Series(alg, fig.Sizes[0])
		if len(series) == 0 {
			b.Fatalf("no cells for %s", alg)
		}
		last := series[len(series)-1]
		if last.Err == nil {
			headline = last.Result.Mops()
		}
	}
	b.ReportMetric(headline, "Mops")
}

// scaledPaperFigure shrinks a paper figure to bench dimensions: a single
// size panel, thread counts capped to the host.
func scaledPaperFigure(fig harness.Figure, size int, threads []int) harness.Figure {
	fig.Sizes = []int{size}
	fig.Threads = threads
	fig.Duration = benchWindow
	fig.Warmup = 10 * time.Millisecond
	return fig
}

func hostThreads() []int {
	n := runtime.NumCPU()
	if n >= 4 {
		return []int{2, n}
	}
	return []int{2, 4}
}

// --- Figure 1: throughput vs threads, physical machine ----------------

func BenchmarkFig1a_4KB(b *testing.B) {
	runFigure(b, scaledPaperFigure(harness.Fig1(), 4<<10, hostThreads()))
}

func BenchmarkFig1b_32KB(b *testing.B) {
	runFigure(b, scaledPaperFigure(harness.Fig1(), 32<<10, hostThreads()))
}

func BenchmarkFig1c_128KB(b *testing.B) {
	runFigure(b, scaledPaperFigure(harness.Fig1(), 128<<10, hostThreads()))
}

// --- Figure 2: virtualized host (CPU-steal simulation) ----------------

func BenchmarkFig2a_4KB(b *testing.B) {
	runFigure(b, scaledPaperFigure(harness.Fig2(), 4<<10, hostThreads()))
}

func BenchmarkFig2b_32KB(b *testing.B) {
	runFigure(b, scaledPaperFigure(harness.Fig2(), 32<<10, hostThreads()))
}

func BenchmarkFig2c_128KB(b *testing.B) {
	runFigure(b, scaledPaperFigure(harness.Fig2(), 128<<10, hostThreads()))
}

// --- Figure 3: oversubscribed thread counts ----------------------------

// fig3Threads scales the 1000–4000 sweep to bench time; the time-sharing
// regime already holds once goroutines ≫ cores.
func fig3Threads() []int { return []int{64, 256} }

func BenchmarkFig3a_4KB(b *testing.B) {
	runFigure(b, scaledPaperFigure(harness.Fig3(), 4<<10, fig3Threads()))
}

func BenchmarkFig3b_32KB(b *testing.B) {
	runFigure(b, scaledPaperFigure(harness.Fig3(), 32<<10, fig3Threads()))
}

func BenchmarkFig3c_128KB(b *testing.B) {
	runFigure(b, scaledPaperFigure(harness.Fig3(), 128<<10, fig3Threads()))
}

// --- §5 second workload: operations with processing --------------------

func BenchmarkProcessing_32KB(b *testing.B) {
	runFigure(b, scaledPaperFigure(harness.FigProcessing(), 32<<10, hostThreads()))
}

// --- RMW accounting: the paper's synchronization-economy claim ---------

func BenchmarkRMWCount(b *testing.B) {
	var arcPerRead, rfPerRead, mnPerRead float64
	for b.Loop() {
		fig := harness.FigRMW()
		fig.Threads = hostThreads()
		fig.Sizes = []int{4 << 10}
		fig.Duration, fig.Warmup = benchWindow, 10*time.Millisecond
		data, err := fig.Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range data.Cells {
			switch c.Algorithm {
			case harness.AlgARC:
				arcPerRead = c.Result.RMWPerRead()
			case harness.AlgRF:
				rfPerRead = c.Result.RMWPerRead()
			}
		}
		// (M,N) composite accounting: M=2 writers, fresh-gated collect.
		mnFig := harness.FigRMWMN()
		mnFig.Threads = []int{4}
		mnFig.Writers = 2
		mnFig.Sizes = []int{4 << 10}
		mnFig.Duration, mnFig.Warmup = benchWindow, 10*time.Millisecond
		mnData, err := mnFig.Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range mnData.Cells {
			if c.Algorithm == harness.AlgMN {
				mnPerRead = c.Result.RMWPerRead()
			}
		}
	}
	b.ReportMetric(arcPerRead, "arc-rmw/read")
	b.ReportMetric(rfPerRead, "rf-rmw/read")
	b.ReportMetric(mnPerRead, "mn-rmw/read")
}

// --- Ablations ----------------------------------------------------------

func benchAblation(b *testing.B, variant harness.Algorithm, metric string) {
	threads := hostThreads()
	th := threads[len(threads)-1]
	var baseline, ablated float64
	for b.Loop() {
		for _, alg := range []harness.Algorithm{harness.AlgARC, variant} {
			res, err := harness.Run(harness.RunConfig{
				Algorithm: alg,
				Threads:   th,
				ValueSize: 4 << 10,
				Mode:      workload.Dummy,
				Duration:  benchWindow,
				Warmup:    10 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			if alg == harness.AlgARC {
				baseline = res.Mops()
			} else {
				ablated = res.Mops()
			}
		}
	}
	b.ReportMetric(baseline, "arc-Mops")
	b.ReportMetric(ablated, metric)
}

// BenchmarkAblationFastPath quantifies the R1–R2 read fast path by
// comparing ARC with the variant that RMWs on every read.
func BenchmarkAblationFastPath(b *testing.B) {
	benchAblation(b, harness.AlgARCNoFast, "nofastpath-Mops")
}

// BenchmarkAblationFreeHint quantifies the §3.4 reader-posted hint by
// comparing against the plain W1 linear scan.
func BenchmarkAblationFreeHint(b *testing.B) {
	benchAblation(b, harness.AlgARCNoHint, "nohint-Mops")
}

// --- Per-operation micro-benchmarks -------------------------------------

func mkRegister(b *testing.B, alg arcreg.AlgorithmID, size int) (arcreg.Register, arcreg.Reader) {
	b.Helper()
	reg, err := newRawRegister(4, size,
		arcreg.WithAlgorithm(alg), arcreg.WithInitialBytes(make2(size)))
	if err != nil {
		b.Fatal(err)
	}
	rd, err := reg.NewReader()
	if err != nil {
		b.Fatal(err)
	}
	return reg, rd
}

func make2(size int) []byte {
	buf := make([]byte, size)
	membuf.Encode(buf, 1)
	return buf
}

func benchReadUncontended(b *testing.B, alg arcreg.AlgorithmID, size int) {
	_, rd := mkRegister(b, alg, size)
	dst := make([]byte, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Read(dst); err != nil {
			b.Fatal(err)
		}
	}
}

func benchViewUncontended(b *testing.B, alg arcreg.AlgorithmID, size int) {
	_, rd := mkRegister(b, alg, size)
	v, ok := rd.(arcreg.Viewer)
	if !ok {
		b.Skip("algorithm has no zero-copy view")
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.View(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWriteUncontended(b *testing.B, alg arcreg.AlgorithmID, size int) {
	reg, rd := mkRegister(b, alg, size)
	defer rd.Close()
	val := make2(size)
	w := reg.Writer()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadARC_4KB(b *testing.B) {
	benchReadUncontended(b, arcreg.ARC, 4<<10)
}

func BenchmarkReadRF_4KB(b *testing.B)       { benchReadUncontended(b, arcreg.RF, 4<<10) }
func BenchmarkReadPeterson_4KB(b *testing.B) { benchReadUncontended(b, arcreg.Peterson, 4<<10) }
func BenchmarkReadLock_4KB(b *testing.B)     { benchReadUncontended(b, arcreg.Lock, 4<<10) }

// BenchmarkViewARC is the paper's headline read path: zero copies, zero
// RMW on unchanged content — compare its ns/op with BenchmarkViewRF's,
// which pays a FetchAndOr every time.
func BenchmarkViewARC(b *testing.B) {
	benchViewUncontended(b, arcreg.ARC, 4<<10)
}

func BenchmarkViewRF(b *testing.B)   { benchViewUncontended(b, arcreg.RF, 4<<10) }
func BenchmarkViewLock(b *testing.B) { benchViewUncontended(b, arcreg.Lock, 4<<10) }

// --- facade overhead ---------------------------------------------------

// BenchmarkFacadeRawGet measures the typed facade's steady-state read
// over the Raw codec: New[[]byte] + TypedReader.Get against the raw
// BenchmarkViewARC path it wraps. The delta is the cost of the
// capability-complete handle (one codec-interface call; the codec
// itself is the identity).
func BenchmarkFacadeRawGet(b *testing.B) {
	reg, err := arcreg.New[[]byte](
		arcreg.WithCodec(arcreg.Raw()),
		arcreg.WithReaders(1),
		arcreg.WithMaxValueSize(4<<10),
	)
	if err != nil {
		b.Fatal(err)
	}
	if err := reg.Set(make([]byte, 4<<10)); err != nil {
		b.Fatal(err)
	}
	rd, err := reg.NewReader()
	if err != nil {
		b.Fatal(err)
	}
	defer rd.Close()
	b.SetBytes(4 << 10)
	for b.Loop() {
		if _, err := rd.Get(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFacadeFresh measures the handle freshness probe — ARC's R1
// comparison through the facade: one atomic load, no RMW, no decode.
func BenchmarkFacadeFresh(b *testing.B) {
	reg, err := arcreg.New[[]byte](
		arcreg.WithCodec(arcreg.Raw()),
		arcreg.WithReaders(1),
	)
	if err != nil {
		b.Fatal(err)
	}
	if err := reg.Set([]byte("steady")); err != nil {
		b.Fatal(err)
	}
	rd, err := reg.NewReader()
	if err != nil {
		b.Fatal(err)
	}
	defer rd.Close()
	if _, err := rd.Get(); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if !rd.Fresh() {
			b.Fatal("steady-state handle went stale")
		}
	}
}

func BenchmarkWriteARC_4KB(b *testing.B) {
	benchWriteUncontended(b, arcreg.ARC, 4<<10)
}

func BenchmarkWriteRF_4KB(b *testing.B)       { benchWriteUncontended(b, arcreg.RF, 4<<10) }
func BenchmarkWritePeterson_4KB(b *testing.B) { benchWriteUncontended(b, arcreg.Peterson, 4<<10) }
func BenchmarkWriteLock_4KB(b *testing.B)     { benchWriteUncontended(b, arcreg.Lock, 4<<10) }

// Size sensitivity of writes (the memcopy is the dominant cost; the paper
// leans on this for the 32KB/128KB panels).
func BenchmarkWriteARC_128KB(b *testing.B) {
	benchWriteUncontended(b, arcreg.ARC, 128<<10)
}

func BenchmarkWritePeterson_128KB(b *testing.B) {
	benchWriteUncontended(b, arcreg.Peterson, 128<<10)
}

// --- (M,N) extension -----------------------------------------------------

// benchMNSteadyRead measures the steady-state composite read: every
// component holds a value, no writer publishes during the measurement —
// the "readers over an idle interval between writes" regime. With the
// adaptive epoch gate the whole scan is ONE atomic load; with only the
// per-component fresh gate it is M loads (zero RMW, zero tag decoding
// either way); the full ablation performs M ARC reads per scan. The
// mn-rmw/read metric comes from the composite ReadStats.
func benchMNSteadyRead(b *testing.B, opts ...arcreg.Option) {
	b.Helper()
	const m = 4
	r, err := arcreg.New[[]byte](append([]arcreg.Option{
		arcreg.WithCodec(arcreg.Raw()),
		arcreg.WithWriters(m), arcreg.WithReaders(2), arcreg.WithMaxValueSize(1024),
	}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	reg := r.MN()
	val := make2(1024)
	for i := 0; i < m; i++ {
		w, err := reg.NewWriter()
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Write(val); err != nil {
			b.Fatal(err)
		}
		defer w.Close()
	}
	rd, err := reg.NewReader()
	if err != nil {
		b.Fatal(err)
	}
	defer rd.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.View(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := rd.ReadStats()
	if st.Ops > 0 {
		b.ReportMetric(float64(st.RMW)/float64(st.Ops), "mn-rmw/read")
		b.ReportMetric(100*float64(st.FastPath)/float64(st.Ops), "fresh-scan-%")
	}
}

// BenchmarkMNRead is the headline (M,N) read cost with all gates on:
// ~0 mn-rmw/read in the steady state (the only RMW instructions are the
// first scan's M slot acquisitions) and one atomic load per scan once
// the epoch gate validates. Compare with BenchmarkMNReadNoFreshGate, the
// always-View ablation — the acceptance bar for the gates is ≥2x ns/op
// at M=4.
func BenchmarkMNRead(b *testing.B) { benchMNSteadyRead(b) }

// BenchmarkMNReadFreshGate names the gated variant explicitly so the
// ablation pair reads side by side in
// `go test -bench 'BenchmarkMNRead(No)?FreshGate'` output.
func BenchmarkMNReadFreshGate(b *testing.B) { benchMNSteadyRead(b) }

// BenchmarkMNReadNoEpochGate isolates the adaptive epoch gate: the
// per-component fresh gate stays on, so a steady scan is M probe loads
// instead of one epoch load.
func BenchmarkMNReadNoEpochGate(b *testing.B) {
	benchMNSteadyRead(b, arcreg.WithoutEpochGate())
}

// BenchmarkMNReadNoFreshGate is the WithoutFreshGate ablation: every scan
// re-Views and re-decodes all M components.
func BenchmarkMNReadNoFreshGate(b *testing.B) {
	benchMNSteadyRead(b, arcreg.WithoutFreshGate())
}

func BenchmarkMNWrite(b *testing.B) {
	reg, err := arcreg.New[[]byte](arcreg.WithCodec(arcreg.Raw()),
		arcreg.WithWriters(4), arcreg.WithReaders(2), arcreg.WithMaxValueSize(1024))
	if err != nil {
		b.Fatal(err)
	}
	w, err := reg.MN().NewWriter()
	if err != nil {
		b.Fatal(err)
	}
	val := make2(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigMN drives the harness's (M,N) thread sweep (gated vs
// ablated collect) at bench scale; `arcbench -figure mn` runs the full
// version.
func BenchmarkFigMN(b *testing.B) {
	fig := harness.FigMN()
	fig.Writers = 2
	runFigure(b, scaledPaperFigure(fig, 4<<10, []int{3, 5}))
}

// --- contended read benchmark: the regime the figures measure -----------

func benchContendedReads(b *testing.B, alg harness.Algorithm, size int) {
	// RunParallel spawns GOMAXPROCS workers; leave headroom for -cpu runs.
	maxReaders := runtime.GOMAXPROCS(0) * 2
	if maxReaders < 4 {
		maxReaders = 4
	}
	reg, err := harness.NewRegister(alg, register.Config{MaxReaders: maxReaders, MaxValueSize: size, Initial: make2(size)})
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() { // background writer at full tilt
		ww := workload.NewWriterWork(reg.Writer(), workload.Dummy, size)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ww.Do(); err != nil {
				return
			}
		}
	}()
	b.RunParallel(func(pb *testing.PB) {
		rd, err := reg.NewReader()
		if err != nil {
			b.Error(err)
			return
		}
		defer rd.Close()
		rw := workload.NewReaderWork(rd, workload.Dummy, size)
		for pb.Next() {
			if err := rw.Do(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkContendedReadARC(b *testing.B)      { benchContendedReads(b, harness.AlgARC, 4<<10) }
func BenchmarkContendedReadRF(b *testing.B)       { benchContendedReads(b, harness.AlgRF, 4<<10) }
func BenchmarkContendedReadPeterson(b *testing.B) { benchContendedReads(b, harness.AlgPeterson, 4<<10) }
func BenchmarkContendedReadLock(b *testing.B)     { benchContendedReads(b, harness.AlgLock, 4<<10) }

// Extension baselines (beyond the paper's comparison set).
func BenchmarkContendedReadSeqlock(b *testing.B) { benchContendedReads(b, harness.AlgSeqlock, 4<<10) }
func BenchmarkContendedReadLeftRight(b *testing.B) {
	benchContendedReads(b, harness.AlgLeftRight, 4<<10)
}

func BenchmarkReadSeqlock_4KB(b *testing.B)   { benchReadUncontended(b, arcreg.Seqlock, 4<<10) }
func BenchmarkReadLeftRight_4KB(b *testing.B) { benchReadUncontended(b, arcreg.LeftRight, 4<<10) }
func BenchmarkViewLeftRight(b *testing.B)     { benchViewUncontended(b, arcreg.LeftRight, 4<<10) }

func BenchmarkWriteSeqlock_4KB(b *testing.B) { benchWriteUncontended(b, arcreg.Seqlock, 4<<10) }
func BenchmarkWriteLeftRight_4KB(b *testing.B) {
	benchWriteUncontended(b, arcreg.LeftRight, 4<<10)
}

// BenchmarkExtensions mirrors the "extensions" figure: ARC vs seqlock vs
// Left-Right on the standard sweep.
func BenchmarkExtensions_4KB(b *testing.B) {
	runFigure(b, scaledPaperFigure(harness.FigExtensions(), 4<<10, hostThreads()))
}
