package regmap

// Tests of the incremental WatchAll collect: a seeded differential test
// against the full-snapshot diff semantics, the copy guard that pins an
// event's allocation to O(changed keys), and the handle-ownership guard
// for loop bodies that read through the watching Reader.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"
)

// diffSnapshots is the reference semantics of a WatchAll delta: the
// difference between two whole-map snapshots — keys created or whose
// bytes changed, with their new values, and keys that disappeared.
func diffSnapshots(prev, cur map[string][]byte) Delta {
	d := Delta{Values: make(map[string][]byte)}
	for k, v := range cur {
		if pv, ok := prev[k]; !ok || !bytes.Equal(pv, v) {
			d.Values[k] = v
		}
	}
	for k := range prev {
		if _, ok := cur[k]; !ok {
			d.Deleted = append(d.Deleted, k)
		}
	}
	sort.Strings(d.Deleted)
	return d
}

// sameDelta reports whether two deltas carry the same changes (Full
// aside).
func sameDelta(a, b Delta) bool {
	if len(a.Values) != len(b.Values) || len(a.Deleted) != len(b.Deleted) {
		return false
	}
	for k, v := range a.Values {
		if w, ok := b.Values[k]; !ok || !bytes.Equal(v, w) {
			return false
		}
	}
	for i := range a.Deleted {
		if a.Deleted[i] != b.Deleted[i] {
			return false
		}
	}
	return true
}

// TestWatchAllDifferential drives WatchAll with iter.Pull2 from one
// goroutine through seeded random steps — Set, byte-identical rewrite,
// Delete, delete+recreate with the same and with different bytes,
// CompactShard, and corruption followed by repair — and checks every
// delta against diffSnapshots of two Snapshots a second Reader takes
// around the steps since the previous event. A step whose reference
// diff is empty is not pulled (WatchAll yields no empty events), so the
// next event must carry the accumulated difference. Replaying every
// delta must reproduce the final Snapshot.
func TestWatchAllDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { watchAllDifferential(t, seed) })
	}
}

func watchAllDifferential(t *testing.T, seed int64) {
	const (
		keys  = 24
		steps = 400
	)
	rng := rand.New(rand.NewSource(seed))
	m := newMap(t, Config{Shards: 4, MaxReaders: 2, MaxValueSize: 16})
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	// A small value alphabet makes byte-identical rewrites and recreates
	// common without being arranged.
	val := func() []byte { return []byte(fmt.Sprintf("v%d", rng.Intn(4))) }
	for i := 0; i < keys/2; i++ {
		if err := m.Set(key(i), val()); err != nil {
			t.Fatal(err)
		}
	}
	wr, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer wr.Close()
	ref, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	snap := func() map[string][]byte {
		t.Helper()
		s, err := ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	next, stop := iter.Pull2(wr.WatchAll(ctx))
	defer stop()
	pull := func() (Delta, error) {
		t.Helper()
		d, err, ok := next()
		if !ok {
			t.Fatal("WatchAll ended early")
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatal("WatchAll delivered no event (conflated a real change away?)")
		}
		return d, err
	}

	state := snap()
	d, err := pull()
	if err != nil || !d.Full || !sameDelta(d, diffSnapshots(nil, state)) {
		t.Fatalf("first event = %+v, %v; want the full snapshot %v", d, err, state)
	}
	replay := make(map[string][]byte)
	apply := func(d Delta) {
		for k, v := range d.Values {
			replay[k] = v
		}
		for _, k := range d.Deleted {
			delete(replay, k)
		}
	}
	apply(d)
	live := func() []string {
		var out []string
		for k := range state {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	events := 0
	for step := 0; step < steps; step++ {
		var op string
		switch r := rng.Intn(7); {
		case r == 0 || len(state) == 0:
			op = "set"
			if err := m.Set(key(rng.Intn(keys)), val()); err != nil {
				t.Fatal(err)
			}
		case r == 1:
			op = "rewrite"
			k := live()[rng.Intn(len(state))]
			if err := m.Set(k, state[k]); err != nil {
				t.Fatal(err)
			}
		case r == 2:
			op = "delete"
			if err := m.Delete(live()[rng.Intn(len(state))]); err != nil {
				t.Fatal(err)
			}
		case r == 3:
			op = "recreate"
			k := live()[rng.Intn(len(state))]
			v := state[k]
			if rng.Intn(2) == 0 {
				v = val()
			}
			if err := m.Delete(k); err != nil {
				t.Fatal(err)
			}
			if err := m.Set(k, v); err != nil {
				t.Fatal(err)
			}
		case r == 4:
			op = "compact"
			if err := m.CompactShard(rng.Intn(m.Shards())); err != nil {
				t.Fatal(err)
			}
		case r == 5:
			op = "set"
			k := key(rng.Intn(keys))
			if err := m.Set(k, []byte(fmt.Sprintf("s%d", step))); err != nil {
				t.Fatal(err)
			}
		default:
			// Corruption is delivered as one error event; the repair — a
			// compaction plus a write on the shard — must then surface as
			// an ordinary delta against the last delivered state. A write
			// to a live key on another shard rides the failed collect and
			// is sometimes reverted before the repair: the delta must
			// then leave that key out.
			op = "corrupt"
			k := key(rng.Intn(keys))
			si := m.ShardOf(k)
			other := ""
			for _, o := range live() {
				if m.ShardOf(o) != si && rng.Intn(2) == 0 {
					other = o
					break
				}
			}
			if other != "" {
				if err := m.Set(other, []byte(fmt.Sprintf("o%d", step))); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.InjectDirectoryCorruption(si); err != nil {
				t.Fatal(err)
			}
			if _, err := pull(); !errors.Is(err, ErrShardCorrupt) {
				t.Fatalf("step %d: event after corruption err = %v, want ErrShardCorrupt", step, err)
			}
			if other != "" && rng.Intn(2) == 0 {
				if err := m.Set(other, state[other]); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.CompactShard(si); err != nil {
				t.Fatal(err)
			}
			if err := m.Set(k, []byte(fmt.Sprintf("c%d", step))); err != nil {
				t.Fatal(err)
			}
		}
		cur := snap()
		want := diffSnapshots(state, cur)
		if len(want.Values) == 0 && len(want.Deleted) == 0 {
			continue
		}
		d, err := pull()
		if err != nil {
			t.Fatalf("step %d (%s): WatchAll error %v", step, op, err)
		}
		if d.Full || !sameDelta(d, want) {
			t.Fatalf("step %d (%s): delta %+v, reference diff %+v", step, op, d, want)
		}
		apply(d)
		state = cur
		events++
	}
	if !sameDelta(diffSnapshots(replay, state), Delta{}) {
		t.Fatalf("replayed deltas %v != final snapshot %v", replay, state)
	}
	if events < steps/4 {
		t.Fatalf("only %d events over %d steps", events, steps)
	}
}

// TestWatchAllCopyGuard pins the incremental collect's cost model: on a
// 1024-key map of 1 KiB values, the event that follows a single Set
// copies that one value, not the map. A full re-collect would allocate
// over 1 MiB per event.
func TestWatchAllCopyGuard(t *testing.T) {
	const (
		keys   = 1024
		size   = 1024
		events = 100
		budget = 64 << 10
	)
	m := newMap(t, Config{MaxReaders: 1, MaxValueSize: size})
	val := make([]byte, size)
	for i := 0; i < keys; i++ {
		val[0] = byte(i)
		if err := m.Set(fmt.Sprintf("key%04d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	next, stop := iter.Pull2(rd.WatchAll(ctx))
	defer stop()
	if d, err, ok := next(); !ok || err != nil || len(d.Values) != keys {
		t.Fatalf("first event: %d values, %v, %v", len(d.Values), err, ok)
	}
	// One warm-up round lets the written slots reach their grown size.
	step := func(i int) {
		t.Helper()
		k := fmt.Sprintf("key%04d", i%keys)
		val[1] = byte(i)
		val[2] = byte(i >> 8)
		if err := m.Set(k, val); err != nil {
			t.Fatal(err)
		}
		d, err, ok := next()
		if !ok || err != nil || len(d.Values) != 1 || len(d.Deleted) != 0 {
			t.Fatalf("event %d: %d values, %d deleted, %v, %v", i, len(d.Values), len(d.Deleted), err, ok)
		}
	}
	for i := 0; i < events; i++ {
		step(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := events; i < 2*events; i++ {
		step(i)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / events; per >= budget {
		t.Fatalf("%d bytes allocated per event after a single Set, want < %d", per, budget)
	}
}

// TestWatchAllReadsInLoopBody: the session caches the values its key
// handles hold, so a Get or Snapshot on the watching Reader inside the
// loop body advances those handles behind its back. The session must
// notice (the handle's counters moved) and byte-compare instead of
// trusting freshness — the next Set still arrives as an event.
func TestWatchAllReadsInLoopBody(t *testing.T) {
	for _, tc := range []struct {
		name string
		read func(*Reader) error
	}{
		{"Get", func(r *Reader) error { _, err := r.Get("a"); return err }},
		{"GetFresh", func(r *Reader) error { _, _, err := r.GetFresh("a"); return err }},
		{"Snapshot", func(r *Reader) error { _, err := r.Snapshot(); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMap(t, Config{Shards: 2, MaxReaders: 1, MaxValueSize: 16})
			for _, k := range []string{"a", "b", "c"} {
				if err := m.Set(k, []byte("0")); err != nil {
					t.Fatal(err)
				}
			}
			rd, err := m.NewReader()
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			n := 0
			for d, err := range rd.WatchAll(ctx) {
				if err != nil {
					t.Fatalf("event %d: %v (the Set after the in-loop read was lost)", n, err)
				}
				if n > 0 {
					if d.Full || string(d.Values["a"]) != fmt.Sprint(n) || len(d.Values) != 1 {
						t.Fatalf("event %d = %+v, want {a:%d}", n, d, n)
					}
				}
				if n == 3 {
					break
				}
				n++
				if err := m.Set("a", []byte(fmt.Sprint(n))); err != nil {
					t.Fatal(err)
				}
				if err := tc.read(rd); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
