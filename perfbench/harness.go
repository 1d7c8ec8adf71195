package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"arcreg/internal/metrics"
)

var clockBase = time.Now()

// now is the benchmark's one clock: monotonic nanoseconds since start.
func now() int64 { return int64(time.Since(clockBase)) }

// sampleEvery is how often in-process workloads time a read: every 64th,
// so the clock reads do not set the throughput they measure.
const sampleEvery = 64

// phases splits a run into a warm-up and one or two measured windows,
// each cut into equal slices: marks[0] ends the warm-up and marks[i] ends
// slice i. A traced run has two windows, untraced then traced, on the
// same set-up. Metrics are medians over a window's slices, so a burst of
// interference from outside the process moves one slice, not the run.
type phases struct {
	marks  []int64
	perWin int // slices per window
}

func newPhases(start int64, warm, slice time.Duration, perWin, windows int) phases {
	p := phases{marks: []int64{start + int64(warm)}, perWin: perWin}
	for i := 1; i <= perWin*windows; i++ {
		p.marks = append(p.marks, p.marks[0]+int64(slice)*int64(i))
	}
	return p
}

// at returns 0 during warm-up, i inside slice i, and len(marks) once the
// run is over.
func (p phases) at(t int64) int {
	i := 0
	for i < len(p.marks) && t >= p.marks[i] {
		i++
	}
	return i
}

// edges returns the indices of window w's first and last boundary in a
// per-boundary array, where index b-1 holds what was seen at boundary b.
func (p phases) edges(w int) (first, last int) { return w * p.perWin, (w + 1) * p.perWin }

// tally is what one load goroutine measured in one slice.
type tally struct {
	ops, failed uint64 // attempted operations, and those that failed
	start, end  int64
	lat         metrics.Histogram // sampled operation latency, ns
	lag         metrics.Histogram // how late the generator issued operations, ns
}

// rate is completed operations per second.
func (t *tally) rate() float64 {
	if t.end <= t.start {
		return 0
	}
	return float64(t.ops-t.failed) / (float64(t.end-t.start) / 1e9)
}

// summary is one window of one load goroutine: medians over its slices.
type summary struct {
	rate, p50, p99 float64
	ops, failed    uint64
	lag            metrics.Histogram // all slices merged
}

func summarize(ts []tally) summary {
	var s summary
	var rates, p50s, p99s []float64
	for i := range ts {
		t := &ts[i]
		rates = append(rates, t.rate())
		if t.lat.Count() > 0 {
			p50s = append(p50s, t.lat.Quantile(0.50))
			p99s = append(p99s, t.lat.Quantile(0.99))
		}
		s.ops += t.ops
		s.failed += t.failed
		s.lag.Merge(&t.lag)
	}
	s.rate, s.p50, s.p99 = median(rates), median(p50s), median(p99s)
	return s
}

// tracker follows one load goroutine through the phases. The goroutine
// crosses every boundary itself, so it snapshots its own counters there
// without sharing them while the run is live.
type tracker struct {
	p    phases
	cur  int
	warm tally   // warm-up work, discarded
	win  []tally // one per slice
}

func newTracker(p phases) *tracker { return &tracker{p: p, win: make([]tally, len(p.marks)-1)} }

// advance moves to the phase of time t, calling cross(b) at each
// boundary b passed (1 ends the warm-up, len(marks) ends the run), and
// reports whether the run is over.
func (tr *tracker) advance(t int64, cross func(b int)) bool {
	for ph := tr.p.at(t); tr.cur < ph; {
		tr.cur++
		b := tr.cur
		if b >= 2 {
			tr.win[b-2].end = t
		}
		if b <= len(tr.win) {
			tr.win[b-1].start = t
		}
		if cross != nil {
			cross(b)
		}
	}
	return tr.cur == len(tr.p.marks)
}

// tally is the current slice's tally (a scratch one during warm-up).
func (tr *tracker) tally() *tally {
	if tr.cur == 0 || tr.cur > len(tr.win) {
		return &tr.warm
	}
	return &tr.win[tr.cur-1]
}

// measuring reports whether the goroutine is inside a measured window.
func (tr *tracker) measuring() bool { return tr.cur >= 1 && tr.cur <= len(tr.win) }

// traced reports whether the goroutine is in the traced window: the
// second of two.
func (tr *tracker) traced() bool { return tr.cur > tr.p.perWin && tr.measuring() }

// window summarizes measured window w.
func (tr *tracker) window(w int) summary {
	first, last := tr.p.edges(w)
	return summarize(tr.win[first:last])
}

// pacer issues operations on an open-loop schedule at a fixed rate. It
// spins rather than sleeps, so the schedule holds at 10 µs periods, and
// yields while it spins so the sampler still gets a processor.
type pacer struct{ period, next int64 }

func newPacer(perSecond int, start int64) *pacer {
	return &pacer{period: int64(time.Second) / int64(perSecond), next: start}
}

// wait returns the due time of the next operation once it has come.
func (p *pacer) wait() int64 {
	due := p.next
	p.next += p.period
	for now() < due {
		runtime.Gosched()
	}
	return due
}

// failure records the first correctness violation and tells every load
// goroutine to stop.
type failure struct {
	stop atomic.Bool
	once sync.Once
	err  error
}

func (f *failure) fail(format string, args ...any) {
	f.once.Do(func() { f.err = fmt.Errorf(format, args...) })
	f.stop.Store(true)
}

// rtSlice is what the runtime reported over one slice.
type rtSlice struct {
	heapPeak    uint64 // peak of heap bytes in use (MemStats.HeapInuse)
	gc0, alloc0 uint64 // cumulative GC cycles and allocated bytes at the start
	gc, alloc   uint64 // and at the end
	start, end  int64
}

// rtWindow is what the runtime reported over one measured window.
type rtWindow struct {
	heapPeak          uint64
	gcPerS, allocMBps float64
}

func runtimeWindow(p phases, slices []rtSlice, w int) rtWindow {
	first, last := p.edges(w)
	ss := slices[first:last]
	var out rtWindow
	for _, s := range ss {
		out.heapPeak = max(out.heapPeak, s.heapPeak)
	}
	a, z := ss[0], ss[len(ss)-1]
	secs := float64(z.end-a.start) / 1e9
	out.gcPerS = float64(z.gc-a.gc0) / secs
	out.allocMBps = float64(z.alloc-a.alloc0) / 1e6 / secs
	return out
}

// sampleRuntime runs on the calling goroutine until the run ends or
// fails. It samples the heap through runtime/metrics, which does not
// stop the world as ReadMemStats does, and calls tick(ph) after every
// sample so a workload can sample its own gauges.
func sampleRuntime(p phases, f *failure, tick func(ph int)) []rtSlice {
	s := []rtmetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	out := make([]rtSlice, len(p.marks)-1)
	cur := 0
	for {
		t := now()
		rtmetrics.Read(s)
		heap := s[0].Value.Uint64() + s[1].Value.Uint64()
		gc, alloc := s[2].Value.Uint64(), s[3].Value.Uint64()
		for ph := p.at(t); cur < ph; {
			cur++
			if cur >= 2 {
				out[cur-2].end, out[cur-2].gc, out[cur-2].alloc = t, gc, alloc
			}
			if cur <= len(out) {
				out[cur-1].start, out[cur-1].gc0, out[cur-1].alloc0 = t, gc, alloc
			}
		}
		if cur >= 1 && cur <= len(out) {
			out[cur-1].heapPeak = max(out[cur-1].heapPeak, heap)
		}
		if cur == len(p.marks) || f.stop.Load() {
			return out
		}
		if tick != nil {
			tick(cur)
		}
		next := min(t+int64(10*time.Millisecond), p.marks[cur])
		time.Sleep(time.Duration(next - now()))
	}
}

// spanName names a bench span: <layer>.<call>, for each exported call
// the benchmark makes into a layer.
type spanName uint8

const (
	spArcRead spanName = iota
	spArcWrite
	spMNRead
	spMNWrite
	spRegmapGet
	spRegmapSet
	spRegmapSnapshot
	spCodecDecode
	spCodecEncode
	spServeGet
	spServeGetFirstByte
	spServePut
	spNotifyObserve
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"arc.read", "arc.write", "mnreg.read", "mnreg.write",
	"regmap.get", "regmap.set", "regmap.snapshot",
	"codec.decode", "codec.encode",
	"serve.get", "serve.get_first_byte", "serve.put", "notify.observe",
}

// writerOp marks the operation ids of writes, so they never equal a
// read's.
const writerOp = 1 << 63

// span is one bench span. Spans of one operation share op.
type span struct {
	op         uint64
	name       spanName
	start, end int64
}

// spanRingSize bounds the spans one goroutine keeps for the dump; the
// per-name histograms see every span.
const spanRingSize = 1 << 14

// spanLog is one goroutine's bench spans, kept in memory until the
// traced run ends.
type spanLog struct {
	hist [numSpanNames]metrics.Histogram
	ring []span
	n    uint64
}

// newSpanLog makes a goroutine's span log during set-up. A traced run's
// ring is allocated and written through here, so the measured windows
// neither allocate it nor fault its pages in; an untraced run records no
// spans and gets no ring.
func newSpanLog(trace bool) *spanLog {
	l := &spanLog{}
	if trace {
		l.ring = make([]span, spanRingSize)
		for i := range l.ring {
			l.ring[i].op = ^uint64(0)
		}
	}
	return l
}

func (l *spanLog) add(name spanName, op uint64, start, end int64) {
	l.hist[name].RecordSince(start, end)
	l.ring[l.n%spanRingSize] = span{op: op, name: name, start: start, end: end}
	l.n++
}

func (l *spanLog) spans() []span {
	if l.n < spanRingSize {
		return l.ring[:l.n]
	}
	return l.ring
}

// merge folds the goroutines' logs into one, spans in start order.
func mergeSpans(logs ...*spanLog) *spanLog {
	out := &spanLog{}
	for _, l := range logs {
		for i := range l.hist {
			out.hist[i].Merge(&l.hist[i])
		}
		out.ring = append(out.ring, l.spans()...)
		out.n += l.n
	}
	slices.SortFunc(out.ring, func(a, b span) int { return int(a.start - b.start) })
	return out
}

func (l *spanLog) p50(name spanName) float64 { return l.hist[name].Quantile(0.5) }

// maxSetUps bounds the set-ups of a workload whose set-up is cheap.
const maxSetUps = 5000

// setUp builds a workload's state at least cfg.setups times and until
// cfg.setupTime has passed, timing each build, and keeps the last one.
// Set-up time is reported as the median build: spreading the builds over
// seconds keeps a short fast or slow spell of the host from setting it.
func setUp[S any](cfg config, build func() (S, error), discard func(S)) (S, []float64, error) {
	var (
		st    S
		times []float64
	)
	start := time.Now()
	for i := 0; i < cfg.setups || (time.Since(start) < cfg.setupTime && i < maxSetUps); i++ {
		if i > 0 {
			discard(st)
		}
		// Each set-up starts from a collected heap, so it does not pay
		// for the garbage of the one before it.
		runtime.GC()
		t0 := time.Now()
		s, err := build()
		if err != nil {
			var zero S
			return zero, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	// Garbage from the discarded set-ups would otherwise set the heap
	// peak of the measured window.
	runtime.GC()
	return st, times, nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
