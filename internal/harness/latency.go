package harness

import (
	"fmt"
	"time"

	"arcreg/internal/metrics"
	"arcreg/internal/workload"
)

// LatencyRow is one line of the latency experiment: per-operation read and
// write latency quantiles for an algorithm under the standard deployment.
// The paper reports throughput only; tail latency is the supplementary
// view that exposes seqlock's unbounded read retries and the lock/
// Left-Right writer stalls that aggregate throughput hides. AlgMap rows
// run the keyed store through its single-key adapter, so its
// directory-probe-then-value-read path is held to the same tail-latency
// scrutiny as the raw algorithms.
type LatencyRow struct {
	Algorithm Algorithm
	Threads   int
	ReadLat   metrics.Histogram
	WriteLat  metrics.Histogram
}

// LatencyReport is the experiment outcome.
type LatencyReport struct {
	Size     int
	Steal    float64
	Duration time.Duration
	Rows     []LatencyRow
}

// RunLatencyComparison samples per-op latencies for the given algorithms.
// Sampling records every 64th operation so the clock reads stay out of
// the measured contention path.
func RunLatencyComparison(algs []Algorithm, threads, size int, stealFrac float64, duration, warmup time.Duration) (LatencyReport, error) {
	rep := LatencyReport{Size: size, Steal: stealFrac, Duration: duration}
	for _, alg := range algs {
		if threads-1 > alg.MaxReaders() {
			continue
		}
		res, err := Run(RunConfig{
			Algorithm:     alg,
			Threads:       threads,
			ValueSize:     size,
			Mode:          workload.Dummy,
			Duration:      duration,
			Warmup:        warmup,
			StealFraction: stealFrac,
			LatencySample: 64,
		})
		if err != nil {
			return rep, fmt.Errorf("latency experiment (%s): %w", alg, err)
		}
		rep.Rows = append(rep.Rows, LatencyRow{
			Algorithm: alg,
			Threads:   threads,
			ReadLat:   res.ReadLat,
			WriteLat:  res.WriteLat,
		})
	}
	return rep, nil
}

// latencyColumns is the latency experiment's schema (nanoseconds).
var latencyColumns = []field[LatencyRow]{
	key("algorithm", "algorithm", "%s", func(r LatencyRow) any { return r.Algorithm }),
	key("waitfree", "waitfree", "%s", func(r LatencyRow) any { return r.Algorithm.WaitFreeLabel() }),
	key("threads", "threads", "%d", func(r LatencyRow) any { return r.Threads }),
	metric("read_p50_ns", "read p50 ns", "%.0f", func(r LatencyRow) any { return r.ReadLat.Quantile(0.5) }),
	metric("read_p99_ns", "read p99 ns", "%.0f", func(r LatencyRow) any { return r.ReadLat.Quantile(0.99) }),
	metric("read_max_ns", "read max ns", "%d", func(r LatencyRow) any { return r.ReadLat.Max() }),
	metric("write_p50_ns", "write p50 ns", "%.0f", func(r LatencyRow) any { return r.WriteLat.Quantile(0.5) }),
	metric("write_p99_ns", "write p99 ns", "%.0f", func(r LatencyRow) any { return r.WriteLat.Quantile(0.99) }),
	metric("write_max_ns", "write max ns", "%d", func(r LatencyRow) any { return r.WriteLat.Max() }),
}

// Table is the report's result: one row per algorithm.
func (rep LatencyReport) Table() Table {
	settings := fmt.Sprintf("size=%s steal=%.0f%% duration=%v", fmtSize(rep.Size), rep.Steal*100, rep.Duration)
	return newTable("latency", "per-operation latency", settings, latencyColumns, rep.Rows, nil)
}
