package arcreg_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"arcreg"
	"arcreg/internal/regmap"
)

// TestMapBasic covers the public Map surface: Set/Get/GetCopy round
// trips, key enumeration, shard routing, misses, freshness probes.
func TestMapBasic(t *testing.T) {
	m, err := arcreg.NewByteMap(arcreg.MapConfig{Shards: 4, MaxReaders: 2, MaxValueSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards() != 4 || m.MaxReaders() != 2 || m.MaxValueSize() != 128 {
		t.Fatalf("config round-trip: %d/%d/%d", m.Shards(), m.MaxReaders(), m.MaxValueSize())
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	if _, err := rd.Get("missing"); !errors.Is(err, arcreg.ErrKeyNotFound) {
		t.Fatalf("miss error = %v", err)
	}
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("cfg/%d", i)
		if err := m.Set(k, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
		if m.ShardOf(k) < 0 || m.ShardOf(k) >= m.Shards() {
			t.Fatalf("ShardOf out of range for %q", k)
		}
	}
	if m.Len() != 32 {
		t.Fatalf("Len = %d", m.Len())
	}
	v, err := rd.Get("cfg/7")
	if err != nil || string(v) != "value-7" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if !rd.Fresh("cfg/7") {
		t.Error("just-read key not fresh")
	}
	dst := make([]byte, 4)
	if n, err := rd.GetCopy("cfg/7", dst); !errors.Is(err, arcreg.ErrBufferTooSmall) || n != len("value-7") {
		t.Fatalf("short GetCopy = %d, %v", n, err)
	}
	dst = make([]byte, 64)
	n, err := rd.GetCopy("cfg/7", dst)
	if err != nil || string(dst[:n]) != "value-7" {
		t.Fatalf("GetCopy = %q, %v", dst[:n], err)
	}
	keys, err := rd.Keys()
	if err != nil || len(keys) != 32 {
		t.Fatalf("Keys = %d, %v", len(keys), err)
	}
	if n, err := rd.Len(); err != nil || n != 32 {
		t.Fatalf("Reader.Len = %d, %v", n, err)
	}
	// Key creation seeds the value register via its initial content (no
	// Write op); only updates count as value publishes.
	if err := m.Set("cfg/7", []byte("updated")); err != nil {
		t.Fatal(err)
	}
	ws := m.WriteStats()
	if ws.Keys != 32 || ws.Value.Ops != 1 || ws.Directory.Ops != 32 {
		t.Fatalf("WriteStats = %+v", ws)
	}
}

// TestMapHotGetZeroRMW is the acceptance criterion at the public layer:
// a Get of an unchanged hot key reports ~0 rmw/get through map-level
// ReadStats — the fresh gate preserved through the map.
func TestMapHotGetZeroRMW(t *testing.T) {
	m, err := arcreg.NewByteMap(arcreg.MapConfig{MaxReaders: 1, MaxValueSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := m.Set(fmt.Sprintf("key-%06d", i), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if _, err := rd.Get("key-000007"); err != nil {
		t.Fatal(err)
	}
	base := rd.ReadStats()
	const hot = 10_000
	for i := 0; i < hot; i++ {
		if _, err := rd.Get("key-000007"); err != nil {
			t.Fatal(err)
		}
	}
	st := rd.ReadStats()
	if st.RMW != base.RMW {
		t.Errorf("hot Gets executed %d RMW instructions, want 0", st.RMW-base.RMW)
	}
	if got := st.FastPath - base.FastPath; got != hot {
		t.Errorf("fast-path Gets = %d, want %d", got, hot)
	}
}

// TestMapOfJSON covers the typed wrapper end to end.
func TestMapOfJSON(t *testing.T) {
	type endpoint struct {
		Host string
		Port int
	}
	tm, err := arcreg.NewMap[endpoint](arcreg.WithReaders(2), arcreg.WithMaxValueSize(256))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := tm.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if _, err := rd.Get("svc/a"); !errors.Is(err, arcreg.ErrKeyNotFound) {
		t.Fatalf("typed miss = %v", err)
	}
	if err := tm.Set("svc/a", endpoint{Host: "10.0.0.1", Port: 443}); err != nil {
		t.Fatal(err)
	}
	if err := tm.Set("svc/b", endpoint{Host: "10.0.0.2", Port: 80}); err != nil {
		t.Fatal(err)
	}
	got, err := rd.Get("svc/a")
	if err != nil || got != (endpoint{Host: "10.0.0.1", Port: 443}) {
		t.Fatalf("typed Get = %+v, %v", got, err)
	}
	if err := tm.Set("svc/a", endpoint{Host: "10.0.0.9", Port: 443}); err != nil {
		t.Fatal(err)
	}
	got, err = rd.Get("svc/a")
	if err != nil || got.Host != "10.0.0.9" {
		t.Fatalf("typed Get after update = %+v, %v", got, err)
	}
	if tm.Map().Len() != 2 {
		t.Fatalf("underlying Len = %d", tm.Map().Len())
	}
	if rd.Reader().ReadStats().Ops == 0 {
		t.Error("typed reads not counted in map ReadStats")
	}
}

// TestMapLifecyclePublic covers Delete and Snapshot through the public
// byte surface: miss-after-delete, recreate-after-delete without
// resurrection, snapshot-vs-model agreement, and stats.
func TestMapLifecyclePublic(t *testing.T) {
	m, err := arcreg.NewByteMap(arcreg.MapConfig{Shards: 4, MaxReaders: 2, MaxValueSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	for i := 0; i < 10; i++ {
		if err := m.Set(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Delete("k3"); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("k3"); !errors.Is(err, arcreg.ErrKeyNotFound) {
		t.Fatalf("double Delete = %v", err)
	}
	if _, err := rd.Get("k3"); !errors.Is(err, arcreg.ErrKeyNotFound) {
		t.Fatalf("Get after Delete = %v", err)
	}
	if m.Len() != 9 {
		t.Fatalf("Len = %d", m.Len())
	}
	if err := m.Set("k3", []byte("reborn")); err != nil {
		t.Fatal(err)
	}
	if v, err := rd.Get("k3"); err != nil || string(v) != "reborn" {
		t.Fatalf("Get after recreate = %q, %v", v, err)
	}
	snap, err := rd.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 10 {
		t.Fatalf("snapshot has %d keys", len(snap))
	}
	if string(snap["k3"]) != "reborn" || string(snap["k7"]) != "v7" {
		t.Fatalf("snapshot contents wrong: %q / %q", snap["k3"], snap["k7"])
	}
	ws := m.WriteStats()
	if ws.Deletes != 1 || ws.Keys != 11 {
		t.Fatalf("WriteStats = %+v", ws)
	}
	if st := rd.ReadStats(); st.Snapshots != 1 {
		t.Fatalf("ReadStats.Snapshots = %d", st.Snapshots)
	}
	if !m.Caps().WaitFreeRead || !m.Caps().FreshProbe {
		t.Fatalf("Map.Caps = %+v", m.Caps())
	}
}

// TestMapCompactPublic covers the facade compaction surface: Compact
// reclaims directory memory after bulk deletes, the Compactions and
// DirBytes write-side counters report it, readers stay consistent
// across the epoch bump, and a live population genuinely past the
// directory ceiling surfaces ErrDirectoryFull through errors.Is.
func TestMapCompactPublic(t *testing.T) {
	m, err := arcreg.NewByteMap(arcreg.MapConfig{Shards: 2, MaxReaders: 2, MaxValueSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	for i := 0; i < 64; i++ {
		if err := m.Set(fmt.Sprintf("bulk/%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rd.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 64; i++ {
		if err := m.Delete(fmt.Sprintf("bulk/%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := m.WriteStats().DirBytes
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	ws := m.WriteStats()
	if ws.Compactions != 2 { // one epoch per shard
		t.Fatalf("WriteStats.Compactions = %d, want 2", ws.Compactions)
	}
	if ws.DirBytes >= before {
		t.Fatalf("DirBytes %d not reclaimed (was %d)", ws.DirBytes, before)
	}
	for i := 0; i < 8; i++ {
		if v, err := rd.Get(fmt.Sprintf("bulk/%d", i)); err != nil || string(v) != "x" {
			t.Fatalf("Get(bulk/%d) across compaction = %q, %v", i, v, err)
		}
	}
	if _, err := rd.Get("bulk/33"); !errors.Is(err, arcreg.ErrKeyNotFound) {
		t.Fatalf("deleted key after compaction = %v", err)
	}
	if n, err := rd.Len(); err != nil || n != 8 {
		t.Fatalf("Len across compaction = %d, %v", n, err)
	}
	// The typed wrapper exposes the same operation.
	tm, err := arcreg.NewMap[int](arcreg.WithReaders(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Set("n", 1); err != nil {
		t.Fatal(err)
	}
	if err := tm.Compact(); err != nil {
		t.Fatal(err)
	}
	if tm.WriteStats().Compactions == 0 {
		t.Fatal("typed Compact published no epochs")
	}
}

// TestMapDirectoryFullPublic shrinks the directory ceiling (test hook)
// and verifies the facade surfaces ErrDirectoryFull for a live set the
// directory cannot hold — and only for that: churn alone auto-compacts.
func TestMapDirectoryFullPublic(t *testing.T) {
	restore := regmap.SetDirCapacity(64)
	defer restore()
	m, err := arcreg.NewByteMap(arcreg.MapConfig{Shards: 1, MaxReaders: 1, MaxValueSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	var full error
	for i := 0; i < 64 && full == nil; i++ {
		full = m.Set(fmt.Sprintf("live-key-%02d", i), []byte("v"))
	}
	if !errors.Is(full, arcreg.ErrDirectoryFull) {
		t.Fatalf("overfilling live set = %v, want ErrDirectoryFull", full)
	}
	// Churn on the keys that fit keeps succeeding indefinitely: the log
	// auto-compacts instead of exhausting the ceiling.
	for round := 0; round < 50; round++ {
		if err := m.Delete("live-key-00"); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := m.Set("live-key-00", []byte("v")); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if m.WriteStats().Compactions == 0 {
		t.Fatal("ceiling churn triggered no auto-compaction")
	}
}

// TestNewMapOptions covers the typed options-parity constructor: the
// accepted option set, its defaults, the typed lifecycle (Set/Get/
// Delete/Snapshot/Values), and rejection of register-only options.
func TestNewMapOptions(t *testing.T) {
	type endpoint struct {
		Host string
		Port int
	}
	tm, err := arcreg.NewMap[endpoint](
		arcreg.WithShards(4),
		arcreg.WithReaders(2),
		arcreg.WithMaxValueSize(256),
	)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Shards() != 4 || tm.Map().MaxReaders() != 2 || tm.Map().MaxValueSize() != 256 {
		t.Fatalf("config round-trip: %d/%d/%d", tm.Shards(), tm.Map().MaxReaders(), tm.Map().MaxValueSize())
	}
	if tm.Codec().Name() != "json" {
		t.Fatalf("default codec = %q", tm.Codec().Name())
	}
	rd, err := tm.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if err := tm.Set("svc/a", endpoint{Host: "10.0.0.1", Port: 443}); err != nil {
		t.Fatal(err)
	}
	if err := tm.Set("svc/b", endpoint{Host: "10.0.0.2", Port: 80}); err != nil {
		t.Fatal(err)
	}
	got, err := rd.Get("svc/a")
	if err != nil || got != (endpoint{Host: "10.0.0.1", Port: 443}) {
		t.Fatalf("typed Get = %+v, %v", got, err)
	}
	if !rd.Fresh("svc/a") {
		t.Error("just-read key not fresh")
	}
	if n, err := rd.Len(); err != nil || n != 2 {
		t.Fatalf("typed Len = %d, %v", n, err)
	}
	if keys, err := rd.Keys(); err != nil || len(keys) != 2 {
		t.Fatalf("typed Keys = %v, %v", keys, err)
	}
	snap, err := rd.Snapshot()
	if err != nil || len(snap) != 2 || snap["svc/b"].Port != 80 {
		t.Fatalf("typed Snapshot = %+v, %v", snap, err)
	}
	if err := tm.Delete("svc/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Get("svc/b"); !errors.Is(err, arcreg.ErrKeyNotFound) {
		t.Fatalf("typed Get after Delete = %v", err)
	}
	if tm.Len() != 1 {
		t.Fatalf("typed Len after Delete = %d", tm.Len())
	}
	// SnapshotOf re-decodes the byte snapshot under a second view.
	raw, err := arcreg.SnapshotOf[endpoint](rd.Reader(), arcreg.JSON[endpoint]())
	if err != nil || len(raw) != 1 || raw["svc/a"].Host != "10.0.0.1" {
		t.Fatalf("SnapshotOf = %+v, %v", raw, err)
	}

	// Register-only options are rejected with a pointer at the right API.
	for name, opts := range map[string][]arcreg.Option{
		"algorithm": {arcreg.WithAlgorithm(arcreg.RF)},
		"writers":   {arcreg.WithWriters(2)},
		"initial":   {arcreg.WithInitial(endpoint{})},
		"arc":       {arcreg.WithARC(arcreg.WithDynamicBuffers())},
		"freshgate": {arcreg.WithoutFreshGate()},
		"bad-codec": {arcreg.WithCodec(arcreg.String())},
	} {
		if _, err := arcreg.NewMap[endpoint](opts[0]); err == nil {
			t.Errorf("NewMap accepted register-only option %s", name)
		}
	}
	// And the map-only options are rejected by New.
	if _, err := arcreg.New[endpoint](arcreg.WithShards(4)); err == nil {
		t.Error("New accepted WithShards")
	}
	if _, err := arcreg.New[endpoint](arcreg.WithDynamicValues()); err == nil {
		t.Error("New accepted WithDynamicValues")
	}
}

// TestMapValuesPoll covers the per-key poll iterator: initial value,
// observed changes in order, and termination on deletion.
func TestMapValuesPoll(t *testing.T) {
	tm, err := arcreg.NewMap[int](arcreg.WithReaders(2), arcreg.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Set("counter", 1); err != nil {
		t.Fatal(err)
	}
	rd, err := tm.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	var seen []int
	var pollErr error
	next := 2
	for v, err := range rd.Values("counter", 0) {
		if err != nil {
			pollErr = err
			break
		}
		seen = append(seen, v)
		if next <= 3 {
			if err := tm.Set("counter", next); err != nil {
				t.Fatal(err)
			}
			next++
		} else {
			if err := tm.Delete("counter"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !errors.Is(pollErr, arcreg.ErrKeyNotFound) {
		t.Fatalf("poll ended with %v, want ErrKeyNotFound", pollErr)
	}
	want := []int{1, 2, 3}
	if len(seen) != len(want) {
		t.Fatalf("observed %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("observed %v, want %v", seen, want)
		}
	}
}

// TestMapValuesNoSpuriousYields pins the Values contract under
// directory churn: creating, updating and deleting other keys on the
// watched key's shard must not fabricate duplicate observations — the
// iterator yields only real changes of its own key (GetFresh's change
// report, not the shard-wide Fresh probe, gates the yield).
func TestMapValuesNoSpuriousYields(t *testing.T) {
	tm, err := arcreg.NewMap[int](arcreg.WithShards(1), arcreg.WithReaders(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Set("watched", 1); err != nil {
		t.Fatal(err)
	}
	rd, err := tm.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	saw1 := make(chan struct{})
	saw2 := make(chan struct{})
	go func() { // the single writer: noise churn around one real change
		<-saw1
		for i := 0; i < 200; i++ {
			if err := tm.Set(fmt.Sprintf("noise-%d", i), i); err != nil {
				t.Error(err)
				return
			}
		}
		if err := tm.Set("watched", 2); err != nil {
			t.Error(err)
			return
		}
		<-saw2
		for i := 0; i < 200; i++ {
			if err := tm.Delete(fmt.Sprintf("noise-%d", i)); err != nil {
				t.Error(err)
				return
			}
		}
		if err := tm.Delete("watched"); err != nil {
			t.Error(err)
		}
	}()

	var seen []int
	var pollErr error
	for v, err := range rd.Values("watched", 0) {
		if err != nil {
			pollErr = err
			break
		}
		seen = append(seen, v)
		switch v {
		case 1:
			close(saw1)
		case 2:
			close(saw2)
		}
	}
	if !errors.Is(pollErr, arcreg.ErrKeyNotFound) {
		t.Fatalf("poll ended with %v, want ErrKeyNotFound", pollErr)
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("observed %v, want [1 2] — directory churn fabricated yields", seen)
	}
}

// ExampleMap shows the map as a wait-free config service: one writer
// goroutine publishes keyed snapshots, readers poll hot keys for free.
func ExampleMap() {
	m, err := arcreg.NewByteMap(arcreg.MapConfig{MaxReaders: 8})
	if err != nil {
		panic(err)
	}
	_ = m.Set("limits/max-conns", []byte("4096"))
	_ = m.Set("limits/max-rps", []byte("10000"))

	rd, _ := m.NewReader()
	defer rd.Close()
	v, _ := rd.Get("limits/max-conns")
	fmt.Printf("max-conns=%s keys=%d\n", v, m.Len())

	// Nothing changed: this Get costs two atomic loads, zero RMW.
	v, _ = rd.Get("limits/max-conns")
	fmt.Printf("still %s, fresh=%v\n", v, rd.Fresh("limits/max-conns"))
	// Output:
	// max-conns=4096 keys=2
	// still 4096, fresh=true
}
