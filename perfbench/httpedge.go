package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"arcreg"
	"arcreg/internal/metrics"
	"arcreg/internal/workload"
)

// The http-edge workload: a Map behind the HTTP handler on loopback, in
// this process, with the flight recorder on as arcserve -trace runs it.
// Connection A is one keep-alive connection in a closed loop of three
// GETs to one PUT over Zipf keys; connection B is one SSE stream on
// GET /watch over all keys, decoding every frame. Each PUT value carries
// its send time, so B measures PUT→SSE observe latency.

const (
	httpKeys      = 1024
	httpValueSize = 1024
	httpZipf      = 1.1
	httpPutEvery  = 4 // one operation in four is a PUT
)

// httpOps is connection A's operation sequence: which key, and whether
// the operation is a PUT.
type httpOps struct {
	keys *workload.KeyChooser
	mix  *rand.Rand
}

func newHTTPOps(seed uint64) *httpOps {
	return &httpOps{
		keys: workload.NewKeyChooser(httpKeys, httpZipf, stream(seed, 4)),
		mix:  rand.New(rand.NewSource(int64(stream(seed, 5)))),
	}
}

func (o *httpOps) next() (key int, put bool) {
	return o.keys.Next(), o.mix.Intn(httpPutEvery) == 0
}

// httpBlob writes a checked value for key with its send time and the id
// of the PUT that carries it.
func httpBlob(b []byte, salt uint64, key int, seq uint64, send int64, op uint64) {
	fillBlob(b, salt, seq)
	le.PutUint64(b[metaSend:], uint64(send))
	le.PutUint64(b[metaKey:], uint64(key))
	le.PutUint64(b[metaOp:], op)
	seal(b)
}

type httpState struct {
	m      *arcreg.Map
	h      *arcreg.HTTPHandler
	hs     *http.Server
	served chan error
	base   string
	a      *http.Client // connection A
	trA    *http.Transport
	trB    *http.Transport
	cancel context.CancelFunc // ends connection B's stream
	sse    io.ReadCloser
	br     *bufio.Reader
}

func (s *httpState) close() {
	s.cancel()
	if s.sse != nil {
		s.sse.Close()
	}
	s.trA.CloseIdleConnections()
	s.trB.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.hs.Shutdown(ctx) != nil {
		s.hs.Close()
	}
	<-s.served
	s.h.Close()
}

// transport makes a client transport that holds at most one connection,
// so each of A and B is exactly one keep-alive connection.
func transport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
}

func buildHTTP(salt uint64, keys []string) (*httpState, error) {
	m, err := arcreg.NewByteMap(arcreg.MapConfig{MaxReaders: 4, MaxValueSize: httpValueSize, Trace: true})
	if err != nil {
		return nil, err
	}
	h, err := arcreg.NewHTTPHandler(m, arcreg.HTTPOptions{Readers: 2, WatchStreams: 2})
	if err != nil {
		return nil, err
	}
	blob := make([]byte, httpValueSize)
	for i, k := range keys {
		httpBlob(blob, salt, i, 1, 0, 0)
		if err := h.Set(k, blob); err != nil {
			h.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &httpState{m: m, h: h, served: make(chan error, 1), base: "http://" + ln.Addr().String(),
		trA: transport(), trB: transport(), cancel: cancel}
	s.hs = &http.Server{Handler: h, ConnState: h.ConnState}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.a = &http.Client{Transport: s.trA, Timeout: 10 * time.Second}
	if err := s.connect(ctx, keys[0]); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// connect opens connection B's stream and reads its first frame, the
// whole map, then opens connection A with a GET of key.
func (s *httpState) connect(ctx context.Context, key string) error {
	req, err := http.NewRequestWithContext(ctx, "GET", s.base+"/watch", nil)
	if err != nil {
		return err
	}
	resp, err := (&http.Client{Transport: s.trB}).Do(req)
	if err != nil {
		return err
	}
	s.sse = resp.Body
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /watch: status %d", resp.StatusCode)
	}
	s.br = bufio.NewReaderSize(resp.Body, 64<<10)
	ev, data, _, err := readFrame(s.br, nil)
	if err != nil {
		return fmt.Errorf("GET /watch: %w", err)
	}
	var d watchDelta
	if err := json.Unmarshal(data, &d); err != nil || ev != "snapshot" || len(d.Values) != httpKeys {
		return fmt.Errorf("GET /watch: first frame %q holds %d keys (%v)", ev, len(d.Values), err)
	}
	for k, v := range d.Values {
		if !blobValid(v) {
			return fmt.Errorf("GET /watch: first frame: value of %s does not hold", k)
		}
	}
	code, err := s.get(context.Background(), key, new(bytes.Buffer))
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", key, code)
	}
	return err
}

// get reads key over connection A into buf and returns the status.
func (s *httpState) get(ctx context.Context, key string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", s.base+"/k/"+key, nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.a.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func (s *httpState) put(key string, blob []byte) (int, error) {
	req, err := http.NewRequest("PUT", s.base+"/k/"+key, bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	resp, err := s.a.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// watchDelta is one /watch frame: the keys changed since the last one.
type watchDelta struct {
	Values  map[string][]byte
	Deleted []string
	Full    bool
}

// readFrame reads one SSE frame into data (reused) and returns its event
// name, its data lines joined, and its size on the wire.
func readFrame(br *bufio.Reader, data []byte) (event string, _ []byte, size int, err error) {
	data = data[:0]
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			// A line longer than the buffer: copy each piece out before
			// the next read overwrites it.
			long := append([]byte(nil), line...)
			for errors.Is(err, bufio.ErrBufferFull) {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err != nil {
			return "", nil, 0, err
		}
		size += len(line)
		line = bytes.TrimSuffix(line, []byte("\n"))
		switch {
		case len(line) == 0:
			if event != "" {
				return event, data, size, nil
			}
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, line[len("data: "):]...)
		}
	}
}

// servePoint is the handler's and the recorder's counters at one instant.
type servePoint struct {
	stats    arcreg.Stats
	recorded uint64
}

func (s *httpState) point() servePoint {
	rec, _ := s.m.Tracer().Stats().Get("recorded")
	return servePoint{s.h.Stats(), rec}
}

func (p servePoint) get(name string) float64 {
	v, _ := p.stats.Get(name)
	return float64(v)
}

// recorderLatencies folds the flight recorder's new events into
// per-stage latency histograms: publish→cascade and publish→SSE flush.
type recorderLatencies struct {
	last           map[string]int64 // newest event seen per ring
	cascade, flush metrics.Histogram
}

func (r *recorderLatencies) poll(tr *arcreg.Tracer, record bool) {
	for _, ev := range tr.Events() {
		if ev.TS <= r.last[ev.Ring] {
			continue
		}
		r.last[ev.Ring] = ev.TS
		if !record || ev.Span == 0 || ev.TS < ev.Span {
			continue
		}
		switch ev.Stage {
		case arcreg.StageCascade:
			r.cascade.Record(uint64(ev.TS - ev.Span))
		case arcreg.StageFlush:
			r.flush.Record(uint64(ev.TS - ev.Span))
		}
	}
}

func runHTTPEdge(cfg config) (*result, error) {
	salt := stream(cfg.seed, 1)
	keys := make([]string, httpKeys)
	index := make(map[string]int, httpKeys)
	for i := range keys {
		keys[i] = workload.KeyName(i)
		index[keys[i]] = i
	}
	st, setup, err := setUp(cfg, func() (*httpState, error) { return buildHTTP(salt, keys) },
		(*httpState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	p := cfg.phases()
	var (
		f             failure
		wgA, wgB      sync.WaitGroup
		rdT, wrT, obT = newTracker(p), newTracker(p), newTracker(p)
		aLog, bLog    = newSpanLog(cfg.trace), newSpanLog(cfg.trace)
		sseBytes      = make([]uint64, len(p.marks)-1) // frame bytes B read per slice
	)
	wgA.Add(1)
	go func() { // connection A: closed loop of GETs and PUTs
		defer wgA.Done()
		ops := newHTTPOps(cfg.seed)
		sent := make([]uint64, httpKeys)  // highest sequence PUT per key
		acked := make([]uint64, httpKeys) // highest sequence acknowledged by 204
		for i := range sent {
			sent[i], acked[i] = 1, 1
		}
		blob := make([]byte, httpValueSize)
		var buf bytes.Buffer
		var firstByte atomic.Int64
		traceCtx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { firstByte.Store(now()) },
		})
		sabotaged := false
		prevEnd := now()
		for op := uint64(1); ; op++ {
			start := now()
			rdT.advance(start, nil)
			if wrT.advance(start, nil) || f.stop.Load() {
				return
			}
			rl, wl := rdT.tally(), wrT.tally()
			rl.lag.RecordSince(prevEnd, start) // the generator's own time between operations
			k, put := ops.next()
			key := keys[k]
			if put && !sabotaged {
				seq := sent[k] + 1
				httpBlob(blob, salt, k, seq, now(), op|writerOp)
				if cfg.sabotage != noSabotage && wrT.measuring() {
					// One bad value on the hottest key, then no more PUTs.
					sabotaged, k, key = true, 0, keys[0]
					seq = sent[0]
					if cfg.sabotage == oldSequence {
						seq = 1
					}
					httpBlob(blob, salt, 0, seq, now(), op|writerOp)
					if cfg.sabotage == badChecksum {
						blob[len(blob)-9] ^= 1
					}
				} else {
					sent[k] = seq
				}
				t0 := now()
				code, err := st.put(key, blob)
				t1 := now()
				wl.ops++
				wl.lat.RecordSince(t0, t1)
				if wrT.traced() {
					aLog.add(spServePut, op|writerOp, t0, t1)
				}
				if err != nil || code != http.StatusNoContent {
					wl.failed++
				} else if !sabotaged {
					acked[k] = seq
				}
				prevEnd = now()
				continue
			}
			ctx := context.Background()
			if rdT.traced() {
				ctx = traceCtx
			}
			t0 := now()
			code, err := st.get(ctx, key, &buf)
			t1 := now()
			rl.ops++
			rl.lat.RecordSince(t0, t1)
			if rdT.traced() && err == nil {
				aLog.add(spServeGet, op, t0, t1)
				aLog.add(spServeGetFirstByte, op, t0, firstByte.Load())
			}
			prevEnd = t1
			if err != nil || code != http.StatusOK {
				rl.failed++
				continue
			}
			v := buf.Bytes()
			seq, _ := blobSeq(v)
			switch {
			case len(v) != httpValueSize || !blobValid(v) || le.Uint64(v[metaKey:]) != uint64(k):
				f.fail("http-edge: GET %s returned a value whose checksum or key does not hold", key)
				return
			case seq < acked[k]:
				f.fail("http-edge: GET %s returned seq %d after PUT of seq %d was acknowledged", key, seq, acked[k])
				return
			case seq > sent[k]:
				f.fail("http-edge: GET %s returned seq %d, never PUT (last %d)", key, seq, sent[k])
				return
			}
		}
	}()
	wgB.Add(1)
	go func() { // connection B: the SSE stream over all keys
		defer wgB.Done()
		last := make([]uint64, httpKeys)
		var data []byte
		for {
			ev, d, size, err := readFrame(st.br, data)
			if err != nil {
				return // the stream is closed at the end of the run
			}
			data = d
			t := now()
			obT.advance(t, nil)
			if obT.measuring() {
				sseBytes[obT.cur-1] += uint64(size)
			}
			var delta watchDelta
			if ev != "delta" || json.Unmarshal(data, &delta) != nil {
				f.fail("http-edge: SSE frame %q does not decode", ev)
				return
			}
			tl := obT.tally()
			for key, v := range delta.Values {
				k, ok := index[key]
				seq, _ := blobSeq(v)
				switch {
				case !ok || !blobValid(v) || le.Uint64(v[metaKey:]) != uint64(k):
					f.fail("http-edge: SSE value for %s: checksum or key does not hold", key)
					return
				case seq < last[k]:
					f.fail("http-edge: SSE seq of %s went from %d to %d", key, last[k], seq)
					return
				}
				last[k] = seq
				if send := int64(le.Uint64(v[metaSend:])); send > 0 {
					tl.ops++
					tl.lat.RecordSince(send, t)
					if obT.traced() {
						bLog.add(spNotifyObserve, le.Uint64(v[metaOp:]), send, t)
					}
				}
			}
		}
	}()

	var (
		rec        = recorderLatencies{last: map[string]int64{}}
		tracedFrom servePoint // counters at the start of the traced window
		queueMax   uint64
		ticks      int
	)
	rt := sampleRuntime(p, &f, func(ph int) {
		if !cfg.trace || ph <= p.perWin {
			return
		}
		if ticks++; ticks == 1 {
			tracedFrom = st.point()
			rec.poll(st.m.Tracer(), false) // skip what the untraced window recorded
			return
		}
		if d, _ := st.h.Stats().Get("queue_depth"); d > queueMax {
			queueMax = d
		}
		if ticks%10 == 0 {
			rec.poll(st.m.Tracer(), true)
		}
	})
	wgA.Wait()
	end := st.point()
	if cfg.trace {
		rec.poll(st.m.Tracer(), true)
	}
	st.cancel()
	st.sse.Close()
	wgB.Wait()
	if f.err != nil {
		return nil, f.err
	}

	res := &result{}
	rd, wr, ob := rdT.window(0), wrT.window(0), obT.window(0)
	res.e2e = append(commonE2E(setup, rd, wr, runtimeWindow(p, rt, 0)),
		metric{"observe_p50_us", "us", ob.p50 / 1e3},
		metric{"observe_p99_us", "us", ob.p99 / 1e3})
	res.count(rdT, wrT)
	if cfg.trace {
		d := func(name string) float64 { return end.get(name) - tracedFrom.get(name) }
		trd, twr := rdT.window(1), wrT.window(1)
		puts := float64(twr.ops - twr.failed)
		gets := d("req_get")
		first, last := p.edges(1)
		var sse uint64
		for _, n := range sseBytes[first:last] {
			sse += n
		}
		spans := mergeSpans(aLog, bLog)
		conns, _ := end.stats.Get("conns_accepted")
		res.layers = append([]metric{
			{"serve.get_ttfb_ns", "ns", spans.p50(spServeGetFirstByte)},
			{"serve.read_fastpath_ratio", "ratio", ratio(d("read_fastpath"), d("read_ops"))},
			{"serve.read_rmw_per_get", "count", ratio(d("read_rmw"), gets)},
			{"serve.bytes_out_per_get", "bytes", ratio(d("bytes_out")-float64(sse), gets)},
			{"serve.queue_depth_max", "count", float64(queueMax)},
			{"serve.shed_ratio", "ratio", ratio(d("shed_writes")+d("shed_watch"), float64(twr.ops))},
			{"serve.conns_accepted", "count", float64(conns)},
			{"notify.events_per_put", "count", ratio(d("watch_events"), puts)},
			{"notify.conflated_ratio", "ratio", ratio(d("watch_conflated"), d("writes_applied"))},
			{"notify.cascade_p99_us", "us", rec.cascade.Quantile(0.99) / 1e3},
			{"trace.flush_p99_us", "us", rec.flush.Quantile(0.99) / 1e3},
			{"trace.events_per_put", "count", ratio(float64(end.recorded-tracedFrom.recorded), puts)},
		}, benchLayers(&trd.lag, rd.rate, trd.rate, runtimeWindow(p, rt, 1))...)
		res.spans = spans
	}
	return res, nil
}
