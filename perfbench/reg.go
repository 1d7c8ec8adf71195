package main

import (
	"errors"
	"sync"

	"arcreg"
)

// The register workloads, reg-paper and mn-rw: the paper's §5 set-up of
// 4 KB values, one writer goroutine paced at 100 000 writes/s and one
// reader goroutine in a closed loop of ReadBytes. reg-paper runs on the
// raw (1,N) ARC register with 63 idle readers pinning slots; mn-rw runs
// the same load through the (M,N) composite with two writer handles.

const (
	regValueSize = 4096
	regReaders   = 64
	regPinned    = 63
	regWriteRate = 100_000
)

type regState struct {
	writers []*arcreg.TypedWriter[[]byte]
	rd      *arcreg.TypedReader[[]byte]
	pinned  []*arcreg.TypedReader[[]byte]
	seq     uint64 // last sequence written
}

func (s *regState) close() {
	for _, rd := range append(s.pinned, s.rd) {
		rd.Close()
	}
	for _, w := range s.writers {
		w.Close()
	}
}

func (s *regState) write(blob []byte) error {
	return s.writers[s.seq%uint64(len(s.writers))].SetBytes(blob)
}

func buildReg(salt uint64, writers, pinned int) (*regState, error) {
	reg, err := arcreg.New[[]byte](arcreg.WithCodec(arcreg.Raw()), arcreg.WithWriters(writers),
		arcreg.WithReaders(regReaders), arcreg.WithMaxValueSize(regValueSize))
	if err != nil {
		return nil, err
	}
	s := &regState{}
	for range writers {
		w, err := reg.NewWriter()
		if err != nil {
			return nil, err
		}
		s.writers = append(s.writers, w)
	}
	blob := make([]byte, regValueSize)
	buf := make([]byte, regValueSize)
	// Each pinned reader reads a different version and then stays idle,
	// holding its slot, so the writer's free-slot search finds almost
	// every slot busy.
	for range pinned + 1 {
		s.seq++
		fillBlob(blob, salt, s.seq)
		if err := s.write(blob); err != nil {
			return nil, err
		}
		rd, err := reg.NewReader()
		if err != nil {
			return nil, err
		}
		n, err := rd.ReadBytes(buf)
		if err != nil {
			return nil, err
		}
		if seq, _ := blobSeq(buf[:n]); seq != s.seq || !blobValid(buf[:n]) {
			return nil, errors.New("set-up read returned the wrong value")
		}
		s.pinned = append(s.pinned, rd)
	}
	s.rd, s.pinned = s.pinned[pinned], s.pinned[:pinned]
	return s, nil
}

func runRegPaper(cfg config) (*result, error) { return runRegister(cfg, 1, regPinned, "arc") }

func runMNRW(cfg config) (*result, error) { return runRegister(cfg, 2, 0, "mnreg") }

func runRegister(cfg config, writers, pinned int, layer string) (*result, error) {
	salt := stream(cfg.seed, 1)
	st, setup, err := setUp(cfg, func() (*regState, error) { return buildReg(salt, writers, pinned) },
		(*regState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	readSpan, writeSpan := spArcRead, spArcWrite
	if writers > 1 {
		readSpan, writeSpan = spMNRead, spMNWrite
	}

	p := cfg.phases()
	var (
		f        failure
		wg       sync.WaitGroup
		rdT, wrT = newTracker(p), newTracker(p)
		rdLog    = newSpanLog(cfg.trace)
		wrLog    = newSpanLog(cfg.trace)
		rdStats  = make([]arcreg.ReadStats, len(p.marks)) // at each boundary
		wrStats  = make([]arcreg.WriteStats, len(p.marks))
	)
	wg.Add(2)
	go func() { // reader: closed loop of ReadBytes into its own buffer
		defer wg.Done()
		buf := make([]byte, regValueSize)
		mn := st.rd.MNReader()
		var last uint64
		var lastTag arcreg.MNTag
		cross := func(b int) { rdStats[b-1] = st.rd.ReadStats() }
		tl := rdT.tally()
		for i := uint64(0); ; i++ {
			sampled := i%sampleEvery == 0
			var t0 int64
			if sampled {
				t0 = now()
				if rdT.advance(t0, cross) || f.stop.Load() {
					return
				}
				tl = rdT.tally()
			}
			n, err := st.rd.ReadBytes(buf)
			tl.ops++
			if err != nil {
				tl.failed++
				continue
			}
			if sampled {
				t1 := now()
				tl.lat.RecordSince(t0, t1)
				if rdT.traced() {
					rdLog.add(readSpan, i, t0, t1)
				}
			}
			seq, ok := blobSeq(buf[:n])
			if !ok || seq < last {
				f.fail("%s: read sequence %d after %d (ends agree: %v)", layer, seq, last, ok)
				return
			}
			if !blobValid(buf[:n]) {
				f.fail("%s: read a value whose checksum does not hold (sequence %d)", layer, seq)
				return
			}
			last = seq
			if mn != nil {
				tag := mn.LastTag()
				if tag.Less(lastTag) {
					f.fail("mnreg: tag went backwards from %v to %v", lastTag, tag)
					return
				}
				lastTag = tag
			}
		}
	}()
	go func() { // writer: open loop paced at regWriteRate
		defer wg.Done()
		blob := make([]byte, regValueSize)
		pace := newPacer(regWriteRate, now())
		cross := func(b int) { wrStats[b-1] = wrStatsOf(st.writers) }
		sabotaged := false
		for {
			next := st.seq + 1
			fillBlob(blob, salt, next)
			due := pace.wait()
			start := now()
			if wrT.advance(start, cross) || f.stop.Load() {
				return
			}
			if sabotaged {
				continue
			}
			if cfg.sabotage != noSabotage && wrT.measuring() {
				// A bad value through the public write API, then silence:
				// the run must fail rather than report numbers.
				sabotaged = true
				if cfg.sabotage == oldSequence {
					fillBlob(blob, salt, 1)
				} else {
					blob[offMeta] ^= 1
				}
			}
			tl := wrT.tally()
			st.seq = next
			err := st.write(blob)
			end := now()
			tl.ops++
			if err != nil {
				tl.failed++
			}
			tl.lat.RecordSince(due, end)
			tl.lag.RecordSince(due, start)
			if wrT.traced() {
				wrLog.add(writeSpan, next|writerOp, start, end)
			}
		}
	}()
	rt := sampleRuntime(p, &f, nil)
	wg.Wait()
	if f.err != nil {
		return nil, f.err
	}
	res := &result{}
	rd, wr := rdT.window(0), wrT.window(0)
	res.e2e = commonE2E(setup, rd, wr, runtimeWindow(p, rt, 0))
	res.count(rdT, wrT)
	if cfg.trace {
		first, last := p.edges(1)
		rs, rs0 := rdStats[last], rdStats[first]
		ws, ws0 := wrStats[last], wrStats[first]
		reads := float64(rs.Ops - rs0.Ops)
		wrs := float64(ws.Ops - ws0.Ops)
		spans := mergeSpans(rdLog, wrLog)
		res.layers = []metric{
			{layer + ".read_ns", "ns", spans.p50(readSpan)},
			{layer + ".read_fastpath_ratio", "ratio", ratio(float64(rs.FastPath-rs0.FastPath), reads)},
			{layer + ".rmw_per_read", "count", ratio(float64(rs.RMW-rs0.RMW), reads)},
			{layer + ".write_ns", "ns", spans.p50(writeSpan)},
			{layer + ".rmw_per_write", "count", ratio(float64(ws.RMW-ws0.RMW), wrs)},
		}
		if writers == 1 {
			res.layers = append(res.layers,
				metric{"arc.scan_per_write", "count", ratio(float64(ws.ScanSteps-ws0.ScanSteps), wrs)},
				metric{"arc.hint_hit_ratio", "ratio", ratio(float64(ws.HintHits-ws0.HintHits), wrs)})
		}
		twr := wrT.window(1)
		res.layers = append(res.layers, benchLayers(&twr.lag, rd.rate, rdT.window(1).rate, runtimeWindow(p, rt, 1))...)
		res.spans = spans
	}
	return res, nil
}

func wrStatsOf(ws []*arcreg.TypedWriter[[]byte]) arcreg.WriteStats {
	var s arcreg.WriteStats
	for _, w := range ws {
		s.Add(w.WriteStats())
	}
	return s
}
