package main

import (
	"fmt"
	"runtime"
	"sync"

	"arcreg"
	"arcreg/internal/workload"
)

// The map-typed workload: an in-process typed map of 1024 JSON quotes.
// One writer goroutine Sets on an open loop paced at 20 000/s; one reader
// goroutine runs a closed loop of typed Gets, every 1000th operation a
// typed Snapshot of all keys. Both pick keys by Zipf(1.1), each from its
// own seed, so the writes decide how often a read finds its key unchanged.

const (
	mapKeys       = 1024
	mapZipf       = 1.1
	mapWriteRate  = 20_000
	snapshotEvery = 1000
)

type mapState struct {
	m    *arcreg.MapOf[Quote]
	rd   *arcreg.MapOfReader[Quote]
	keys []string
	seq  []uint64 // last sequence written per key
}

func buildMap(salt uint64) (*mapState, error) {
	m, err := arcreg.NewMap[Quote](arcreg.WithReaders(2))
	if err != nil {
		return nil, err
	}
	s := &mapState{m: m, keys: mapKeyNames(), seq: make([]uint64, mapKeys)}
	for i, k := range s.keys {
		s.seq[i] = 1
		if err := m.Set(k, newQuote(salt, k, 1)); err != nil {
			return nil, err
		}
	}
	if s.rd, err = m.NewReader(); err != nil {
		return nil, err
	}
	return s, nil
}

func mapKeyNames() []string {
	keys := make([]string, mapKeys)
	for i := range keys {
		keys[i] = workload.KeyName(i)
	}
	return keys
}

// mapReads and mapWrites are the map-typed key sequences: Zipf over the
// keys, each side from its own stream of the seed.
func mapReads(seed uint64) *workload.KeyChooser {
	return workload.NewKeyChooser(mapKeys, mapZipf, stream(seed, 2))
}

func mapWrites(seed uint64) *workload.KeyChooser {
	return workload.NewKeyChooser(mapKeys, mapZipf, stream(seed, 3))
}

func runMapTyped(cfg config) (*result, error) {
	salt := stream(cfg.seed, 1)
	st, setup, err := setUp(cfg, func() (*mapState, error) { return buildMap(salt) },
		func(s *mapState) { s.rd.Close() })
	if err != nil {
		return nil, err
	}
	defer st.rd.Close()
	cd := st.m.Codec()
	raw := st.rd.Reader()

	p := cfg.phases()
	var (
		f         failure
		wg        sync.WaitGroup
		rdT, wrT  = newTracker(p), newTracker(p)
		rdLog     = newSpanLog(cfg.trace)
		wrLog     = newSpanLog(cfg.trace)
		snapT     = make([]tally, len(p.marks)-1)             // typed Snapshot latency per slice
		rdStats   = make([]arcreg.MapReadStats, len(p.marks)) // at each boundary
		unchanged uint64                                      // traced Gets whose key Fresh reported unchanged
		tracedGet uint64
	)
	wg.Add(2)
	go func() { // reader: closed loop of typed Gets and Snapshots
		defer wg.Done()
		choose := mapReads(cfg.seed)
		last := make([]uint64, mapKeys) // highest sequence seen per key
		cross := func(b int) { rdStats[b-1] = st.rd.ReadStats() }
		check := func(i int, q Quote, what string) bool {
			switch {
			case q.Key != st.keys[i]:
				f.fail("map-typed: %s of %s decoded key %q", what, st.keys[i], q.Key)
			case !q.valid():
				f.fail("map-typed: %s of %s: checksum does not hold (seq %d)", what, st.keys[i], q.Seq)
			case q.Seq < last[i]:
				f.fail("map-typed: %s of %s returned seq %d after %d", what, st.keys[i], q.Seq, last[i])
			default:
				last[i] = q.Seq
				return true
			}
			return false
		}
		tl := rdT.tally()
		gets := uint64(0)
		for op := uint64(1); ; op++ {
			if op%snapshotEvery == 0 {
				t0 := now()
				if rdT.advance(t0, cross) || f.stop.Load() {
					return
				}
				tl = rdT.tally()
				var snap map[string]Quote
				var err error
				if rdT.traced() {
					snap, err = tracedSnapshot(raw, cd, rdLog, op, t0)
				} else {
					snap, err = st.rd.Snapshot()
				}
				t1 := now()
				if rdT.measuring() {
					snapT[rdT.cur-1].ops++
					snapT[rdT.cur-1].lat.RecordSince(t0, t1)
				}
				if err != nil {
					f.fail("map-typed: snapshot: %v", err)
					return
				}
				if len(snap) != mapKeys {
					f.fail("map-typed: snapshot holds %d keys, want %d", len(snap), mapKeys)
					return
				}
				for i, k := range st.keys {
					if !check(i, snap[k], "snapshot") {
						return
					}
				}
				continue
			}
			gets++
			i := choose.Next()
			key := st.keys[i]
			sampled := gets%sampleEvery == 0
			var t0 int64
			if sampled {
				t0 = now()
				if rdT.advance(t0, cross) || f.stop.Load() {
					return
				}
				tl = rdT.tally()
			}
			var q Quote
			var err error
			if rdT.traced() {
				// A typed Get is exactly these two public halves.
				tracedGet++
				if raw.Fresh(key) {
					unchanged++
				}
				var v []byte
				if sampled {
					v, err = raw.Get(key)
					t1 := now()
					rdLog.add(spRegmapGet, op, t0, t1)
					if err == nil {
						q, err = cd.Decode(v)
						rdLog.add(spCodecDecode, op, t1, now())
					}
				} else if v, err = raw.Get(key); err == nil {
					q, err = cd.Decode(v)
				}
			} else {
				q, err = st.rd.Get(key)
			}
			if sampled {
				tl.lat.RecordSince(t0, now())
			}
			tl.ops++
			if err != nil {
				tl.failed++
				continue
			}
			if !check(i, q, "Get") {
				return
			}
		}
	}()
	go func() { // writer: open loop paced at mapWriteRate
		defer wg.Done()
		choose := mapWrites(cfg.seed)
		pace := newPacer(mapWriteRate, now())
		sabotaged := false
		for n := uint64(1); ; n++ {
			i := choose.Next()
			due := pace.wait()
			start := now()
			if wrT.advance(start, nil) || f.stop.Load() {
				return
			}
			if sabotaged {
				continue
			}
			st.seq[i]++
			q := newQuote(salt, st.keys[i], st.seq[i])
			if cfg.sabotage != noSabotage && wrT.measuring() {
				// One bad value on the hottest key, then silence.
				sabotaged, i = true, 0
				q = newQuote(salt, st.keys[0], st.seq[0])
				if cfg.sabotage == oldSequence {
					q = newQuote(salt, st.keys[0], 1)
				} else {
					q.Bid++
				}
			}
			tl := wrT.tally()
			var err error
			if wrT.traced() {
				var blob []byte
				blob, err = cd.Encode(q)
				t1 := now()
				wrLog.add(spCodecEncode, n|writerOp, start, t1)
				if err == nil {
					err = st.m.Map().Set(st.keys[i], blob)
					wrLog.add(spRegmapSet, n|writerOp, t1, now())
				}
			} else {
				err = st.m.Set(st.keys[i], q)
			}
			end := now()
			tl.ops++
			if err != nil {
				tl.failed++
			}
			tl.lat.RecordSince(due, end)
			tl.lag.RecordSince(due, start)
		}
	}()
	rt := sampleRuntime(p, &f, nil)
	wg.Wait()
	if f.err != nil {
		return nil, f.err
	}

	res := &result{}
	rd, wr := rdT.window(0), wrT.window(0)
	first, last := p.edges(0)
	snaps := summarize(snapT[first:last])
	res.e2e = append(commonE2E(setup, rd, wr, runtimeWindow(p, rt, 0)),
		metric{"snapshot_p50_us", "us", snaps.p50 / 1e3})
	res.count(rdT, wrT)
	for i := range snapT {
		res.attempted += snapT[i].ops
	}
	if cfg.trace {
		allocs, err := allocsPerDecode(raw, cd, st.keys[0])
		if err != nil {
			return nil, err
		}
		first, last := p.edges(1)
		rs, rs0 := rdStats[last], rdStats[first]
		gets := float64(rs.Ops - rs0.Ops)
		spans := mergeSpans(rdLog, wrLog)
		getNs, decNs := spans.p50(spRegmapGet), spans.p50(spCodecDecode)
		twr := wrT.window(1)
		res.layers = append([]metric{
			{"regmap.get_ns", "ns", getNs},
			{"regmap.set_ns", "ns", spans.p50(spRegmapSet)},
			{"regmap.get_fastpath_ratio", "ratio", ratio(float64(rs.FastPath-rs0.FastPath), gets)},
			{"regmap.rmw_per_get", "count", ratio(float64(rs.RMW-rs0.RMW), gets)},
			{"regmap.unchanged_get_ratio", "ratio", ratio(float64(unchanged), float64(tracedGet))},
			{"regmap.dir_refreshes_per_kget", "count", ratio(float64(rs.DirRefreshes-rs0.DirRefreshes), gets/1e3)},
			{"regmap.snapshot_us", "us", spans.p50(spRegmapSnapshot) / 1e3},
			{"regmap.snapshot_retries_per_snapshot", "count",
				ratio(float64(rs.SnapshotRetries-rs0.SnapshotRetries), float64(rs.Snapshots-rs0.Snapshots))},
			{"codec.decode_ns", "ns", decNs},
			{"codec.encode_ns", "ns", spans.p50(spCodecEncode)},
			{"codec.allocs_per_decode", "count", allocs},
			{"codec.read_share", "ratio", ratio(decNs, getNs+decNs)},
		}, benchLayers(&twr.lag, rd.rate, rdT.window(1).rate, runtimeWindow(p, rt, 1))...)
		res.spans = spans
	}
	return res, nil
}

// tracedSnapshot is a typed Snapshot split into its public halves: the
// raw MapReader.Snapshot and a Decode per key.
func tracedSnapshot(raw *arcreg.MapReader, cd arcreg.Codec[Quote], log *spanLog, op uint64, t0 int64) (map[string]Quote, error) {
	snap, err := raw.Snapshot()
	t1 := now()
	log.add(spRegmapSnapshot, op, t0, t1)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Quote, len(snap))
	for k, v := range snap {
		if out[k], err = cd.Decode(v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// allocsPerDecode counts heap allocations per typed decode. It runs after
// the load goroutines have stopped, so nothing else allocates.
func allocsPerDecode(raw *arcreg.MapReader, cd arcreg.Codec[Quote], key string) (float64, error) {
	v, err := raw.Get(key)
	if err != nil {
		return 0, fmt.Errorf("map-typed: Get %s: %w", key, err)
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		if _, err := cd.Decode(v); err != nil {
			return 0, fmt.Errorf("map-typed: decode %s: %w", key, err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n, nil
}
