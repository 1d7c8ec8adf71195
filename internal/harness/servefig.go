package harness

// The serving-layer experiment behind `arcbench -figure serve`: a real
// arcserve HTTP server on a loopback TCP listener, N keep-alive GET
// clients hammering hot keys, one HTTP PUT writer publishing
// timestamped values at a fixed cadence, and SSE watch clients
// decoding them — measuring what the network edge costs on top of the
// register. Two numbers matter: sustained GET req/s (the wait-free
// read behind a syscall) and publish→client-observe latency through
// PUT → shard writer queue → register publish → Watch wakeup → SSE
// frame → client decode. Timestamps are nanoseconds on the process's
// monotonic clock, written into the value's first 8 bytes by the
// writer client and subtracted on the watcher client — one process,
// one clock, no skew.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arcreg/internal/metrics"
	"arcreg/internal/regmap"
	"arcreg/internal/serve"
	"arcreg/internal/trace"
)

// ServeRunConfig describes one cell of the serve figure.
type ServeRunConfig struct {
	// Clients is the concurrent keep-alive GET client count.
	Clients int
	// Watchers is the SSE watch client count (each on the hot key).
	Watchers int
	// Keys is the key population GET clients cycle over.
	Keys int
	// ValueSize is the published value size (≥ 16; the first 8 bytes
	// carry the publish timestamp).
	ValueSize int
	// PublishEvery is the HTTP PUT writer cadence (0 = back-to-back).
	PublishEvery time.Duration
	// Duration is the measurement window; Warmup precedes it.
	Duration time.Duration
	Warmup   time.Duration
	// PoolReaders/QueueDepth tune the server (0 = serve defaults
	// scaled to the client count).
	PoolReaders int
	QueueDepth  int
}

// ServeResult is one cell's outcome.
type ServeResult struct {
	// Gets counts completed 200 GETs in the window; GetLat is their
	// client-side request latency (ns).
	Gets   uint64
	GetLat metrics.Histogram
	// Puts counts writer publications in the window.
	Puts uint64
	// Observed counts watch deliveries decoded in the window; ObsLat
	// is their publish→client-observe latency (ns), merged over
	// watchers.
	Observed uint64
	ObsLat   metrics.Histogram
	// Shed counts 503s (write queue + watch cap) over the whole run;
	// Conflated is the watcher ledgers' skipped-publication total.
	Shed      uint64
	Conflated uint64
	// CascadeLat and FlushLat are the flight recorder's per-stage
	// decomposition of the publish→observe path: origin publication →
	// wakeup-tree root cascade, and origin publication → SSE frame
	// flushed. ConflateDrops sums the publications conflated away at
	// delivery decisions. All three cover the trailing ring window (the
	// recorder keeps the last events per domain), not the full run.
	CascadeLat    metrics.Histogram
	FlushLat      metrics.Histogram
	ConflateDrops uint64
	Elapsed       time.Duration
}

// Rate is sustained GETs per second over the measured window.
func (r ServeResult) Rate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Gets) / r.Elapsed.Seconds()
}

// RunServe measures one serving cell against a live loopback server.
func RunServe(cfg ServeRunConfig) (ServeResult, error) {
	if cfg.Clients <= 0 {
		return ServeResult{}, fmt.Errorf("harness: serve figure needs at least one client, got %d", cfg.Clients)
	}
	if cfg.Watchers <= 0 {
		cfg.Watchers = 1
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 16
	}
	if cfg.ValueSize < 16 {
		cfg.ValueSize = 16
	}
	pool := cfg.PoolReaders
	if pool <= 0 {
		pool = cfg.Clients
		if pool > 16 {
			pool = 16
		}
	}
	queue := cfg.QueueDepth
	if queue <= 0 {
		queue = 256
	}
	m, err := regmap.New(regmap.Config{
		Shards:       4,
		MaxReaders:   pool + cfg.Watchers + 2,
		MaxValueSize: cfg.ValueSize,
		// The flight recorder stays on for the measurement: its stage
		// breakdown is what the cascade/flush columns report, and its
		// recording paths are zero-RMW/zero-alloc by construction (the
		// guard tests pin this), so the figure's numbers are the traced
		// production configuration, not a special quiet mode.
		Trace: true,
	})
	if err != nil {
		return ServeResult{}, err
	}
	srv, err := serve.New(serve.Config{
		Map:          m,
		Readers:      pool,
		WatchStreams: cfg.Watchers + 1,
		QueueDepth:   queue,
	})
	if err != nil {
		return ServeResult{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return ServeResult{}, err
	}
	hs := &http.Server{Handler: srv, ConnState: srv.ConnState}
	go hs.Serve(serve.Listener(ln))
	base := "http://" + ln.Addr().String()
	defer func() {
		hs.Close()
		srv.Close()
	}()

	keys := make([]string, cfg.Keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("hot-%03d", i)
	}
	seed := make([]byte, cfg.ValueSize)
	for _, k := range keys {
		if err := srv.Set(k, seed); err != nil {
			return ServeResult{}, err
		}
	}

	epoch := time.Now()
	now := func() uint64 { return uint64(time.Since(epoch)) }

	const (
		phaseWarmup = iota
		phaseMeasure
		phaseStop
	)
	var phase atomic.Int32
	transport := &http.Transport{
		MaxIdleConns:        cfg.Clients + cfg.Watchers + 4,
		MaxIdleConnsPerHost: cfg.Clients + cfg.Watchers + 4,
	}
	client := &http.Client{Transport: transport}
	defer transport.CloseIdleConnections()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	failed := func(err error) {
		e := err
		firstErr.CompareAndSwap(nil, &e)
		phase.Store(phaseStop)
		cancel()
	}

	// Writer client: HTTP PUTs of timestamped values, cycling the hot
	// key (watched) and the rest of the population.
	var puts uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, cfg.ValueSize)
		var round uint64
		for phase.Load() != phaseStop {
			round++
			key := keys[round%uint64(len(keys))]
			binary.LittleEndian.PutUint64(buf, now())
			req, err := http.NewRequest("PUT", base+"/k/"+key, bytes.NewReader(buf))
			if err != nil {
				failed(err)
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				if phase.Load() == phaseStop {
					return
				}
				failed(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusNoContent && phase.Load() == phaseMeasure {
				atomic.AddUint64(&puts, 1)
			}
			if cfg.PublishEvery > 0 {
				time.Sleep(cfg.PublishEvery)
			}
		}
	}()

	// GET clients: keep-alive request loops over the key population.
	type getStats struct {
		gets uint64
		hist metrics.Histogram
	}
	gstats := make([]getStats, cfg.Clients)
	for ci := 0; ci < cfg.Clients; ci++ {
		wg.Add(1)
		go func(st *getStats, ci int) {
			defer wg.Done()
			var i int
			for phase.Load() != phaseStop {
				key := keys[(ci+i)%len(keys)]
				i++
				start := now()
				resp, err := client.Get(base + "/k/" + key)
				if err != nil {
					if phase.Load() == phaseStop {
						return
					}
					failed(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK && phase.Load() == phaseMeasure {
					st.hist.Record(now() - start)
					st.gets++
				}
			}
		}(&gstats[ci], ci)
	}

	// Watch clients: SSE streams on the hot key, decoding the publish
	// timestamp out of each delivered value.
	type obsStats struct {
		observed uint64
		hist     metrics.Histogram
	}
	ostats := make([]obsStats, cfg.Watchers)
	for wi := 0; wi < cfg.Watchers; wi++ {
		req, err := http.NewRequestWithContext(ctx, "GET", base+"/watch/"+keys[0]+"?b64=1", nil)
		if err != nil {
			failed(err)
			break
		}
		resp, err := client.Do(req)
		if err != nil {
			failed(err)
			break
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			failed(fmt.Errorf("harness: watch stream status %d", resp.StatusCode))
			break
		}
		wg.Add(1)
		go func(st *obsStats, body io.ReadCloser) {
			defer wg.Done()
			defer body.Close()
			br := bufio.NewReader(body)
			for {
				data, err := readSSEData(br)
				if err != nil {
					return // stream canceled at teardown
				}
				raw, err := base64.StdEncoding.DecodeString(data)
				if err != nil || len(raw) < 8 {
					continue // deleted/degraded frame: no timestamp
				}
				ts := binary.LittleEndian.Uint64(raw)
				if phase.Load() == phaseMeasure && ts > 0 {
					st.hist.Record(now() - ts)
					st.observed++
				}
			}
		}(&ostats[wi], resp.Body)
	}

	time.Sleep(cfg.Warmup)
	phase.Store(phaseMeasure)
	start := time.Now()
	time.Sleep(cfg.Duration)
	phase.Store(phaseStop)
	elapsed := time.Since(start)

	// Read the server ledgers before tearing the streams down: the
	// watcher conflation counters live on the map tracker while the
	// streams are attached.
	sn := srv.Stats()
	shedW, _ := sn.Get("shed_writes")
	shedS, _ := sn.Get("shed_watch")
	conflated, _ := sn.Get("watch_conflated")
	breakdown := m.Tracer().Breakdown()

	cancel()
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return ServeResult{}, *ep
	}

	res := ServeResult{
		Puts:          atomic.LoadUint64(&puts),
		Shed:          shedW + shedS,
		Conflated:     conflated,
		CascadeLat:    breakdown.Latency[trace.StageCascade],
		FlushLat:      breakdown.Latency[trace.StageFlush],
		ConflateDrops: breakdown.ConflateDrops,
		Elapsed:       elapsed,
	}
	for i := range gstats {
		res.Gets += gstats[i].gets
		res.GetLat.Merge(&gstats[i].hist)
	}
	for i := range ostats {
		res.Observed += ostats[i].observed
		res.ObsLat.Merge(&ostats[i].hist)
	}
	return res, nil
}

// readSSEData reads the next SSE frame and returns its joined data
// payload (events without data yield an empty string).
func readSSEData(br *bufio.Reader) (string, error) {
	var data []string
	seen := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if !seen {
				continue
			}
			return strings.Join(data, "\n"), nil
		case strings.HasPrefix(line, "data: "):
			seen = true
			data = append(data, line[len("data: "):])
		default:
			seen = true
		}
	}
}

// ServeFigure sweeps concurrent client counts against one server.
type ServeFigure struct {
	ID           string
	Clients      []int
	Watchers     int
	Keys         int
	ValueSize    int
	PublishEvery time.Duration
	Duration     time.Duration
	Warmup       time.Duration
}

// FigServe returns the standard serving figure: sustained loopback GET
// req/s and publish→client-observe latency, swept over client counts.
func FigServe() ServeFigure {
	return ServeFigure{
		ID:           "serve",
		Clients:      []int{1, 4, 16},
		Watchers:     2,
		Keys:         16,
		ValueSize:    64,
		PublishEvery: 500 * time.Microsecond,
		Duration:     time.Second,
		Warmup:       200 * time.Millisecond,
	}
}

// Scale clamps the figure for smoke runs, always keeping at least two
// client counts — the figure's contract is req/s and latency for ≥ 2
// concurrency levels.
func (f ServeFigure) Scale(maxClients int, duration, warmup time.Duration) ServeFigure {
	if maxClients < 2 {
		maxClients = 2
	}
	var cs []int
	for _, c := range f.Clients {
		if c <= maxClients {
			cs = append(cs, c)
		}
	}
	if len(cs) == 0 {
		cs = []int{1}
	}
	if len(cs) == 1 {
		next := cs[0] * 2
		if next > maxClients {
			next = maxClients
		}
		if next == cs[0] {
			next++
		}
		cs = append(cs, next)
	}
	f.Clients = cs
	if duration > 0 && duration < f.Duration {
		f.Duration = duration
	}
	if warmup > 0 && warmup < f.Warmup {
		f.Warmup = warmup
	}
	return f
}

// ServeCell is one measured figure cell.
type ServeCell struct {
	Clients int
	Result  ServeResult
	Err     error
}

// ServeData is the figure outcome.
type ServeData struct {
	Figure ServeFigure
	Cells  []ServeCell
}

// Run executes the client-count sweep.
func (f ServeFigure) Run(progress func(done, total int, c ServeCell)) (ServeData, error) {
	data := ServeData{Figure: f}
	for i, clients := range f.Clients {
		res, err := RunServe(ServeRunConfig{
			Clients:      clients,
			Watchers:     f.Watchers,
			Keys:         f.Keys,
			ValueSize:    f.ValueSize,
			PublishEvery: f.PublishEvery,
			Duration:     f.Duration,
			Warmup:       f.Warmup,
		})
		cell := ServeCell{Clients: clients, Result: res, Err: err}
		if err != nil {
			return data, err
		}
		data.Cells = append(data.Cells, cell)
		if progress != nil {
			progress(i+1, len(f.Clients), cell)
		}
	}
	return data, nil
}

// Table is the figure's result: one row per client count.
func (d ServeData) Table() Table {
	f := d.Figure
	columns := []field[ServeCell]{
		key("clients", "clients", "%d", func(c ServeCell) any { return c.Clients }),
		key("watchers", "watchers", "%d", func(ServeCell) any { return f.Watchers }),
		key("keys", "keys", "%d", func(ServeCell) any { return f.Keys }),
		key("value_size", "value", "%d", func(ServeCell) any { return f.ValueSize }),
		metric("window_ms", "window ms", "%.0f", func(c ServeCell) any { return float64(c.Result.Elapsed) / float64(time.Millisecond) }),
		metric("gets", "gets", "%d", func(c ServeCell) any { return c.Result.Gets }),
		metric("get_rps", "get req/s", "%.0f", func(c ServeCell) any { return c.Result.Rate() }),
		metric("get_p50_ns", "get p50 ns", "%.0f", func(c ServeCell) any { return c.Result.GetLat.Quantile(0.5) }),
		metric("get_p99_ns", "get p99 ns", "%.0f", func(c ServeCell) any { return c.Result.GetLat.Quantile(0.99) }),
		metric("puts", "puts", "%d", func(c ServeCell) any { return c.Result.Puts }),
		metric("observed", "observed", "%d", func(c ServeCell) any { return c.Result.Observed }),
		metric("obs_p50_ns", "obs p50 ns", "%.0f", func(c ServeCell) any { return c.Result.ObsLat.Quantile(0.5) }),
		metric("obs_p99_ns", "obs p99 ns", "%.0f", func(c ServeCell) any { return c.Result.ObsLat.Quantile(0.99) }),
		metric("obs_max_ns", "obs max ns", "%d", func(c ServeCell) any { return c.Result.ObsLat.Max() }),
		metric("shed", "shed", "%d", func(c ServeCell) any { return c.Result.Shed }),
		metric("conflated", "conflated", "%d", func(c ServeCell) any { return c.Result.Conflated }),
		metric("cascade_p99_ns", "cascade p99 ns", "%.0f", func(c ServeCell) any { return c.Result.CascadeLat.Quantile(0.99) }),
		metric("conflate_drops", "drops", "%d", func(c ServeCell) any { return c.Result.ConflateDrops }),
		metric("flush_p99_ns", "flush p99 ns", "%.0f", func(c ServeCell) any { return c.Result.FlushLat.Quantile(0.99) }),
	}
	settings := fmt.Sprintf("publish_every=%v value=%dB keys=%d watchers=%d duration=%v",
		f.PublishEvery, f.ValueSize, f.Keys, f.Watchers, f.Duration)
	return newTable(f.ID, "loopback serving: GET req/s and publish→client-observe latency", settings, columns, d.Cells, func(c ServeCell) error { return c.Err })
}
