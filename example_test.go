package arcreg_test

import (
	"context"
	"fmt"
	"sort"
	"time"

	"arcreg"
)

// The canonical usage: New builds an ARC register over JSON; one
// goroutine Sets, readers Get wait-free through their own handles.
func ExampleNew() {
	type limits struct {
		RPS   int `json:"rps"`
		Burst int `json:"burst"`
	}
	reg, err := arcreg.New[limits](
		arcreg.WithReaders(4),
		arcreg.WithMaxValueSize(256),
	)
	if err != nil {
		panic(err)
	}
	if err := reg.Set(limits{RPS: 100, Burst: 250}); err != nil {
		panic(err)
	}
	rd, err := reg.NewReader()
	if err != nil {
		panic(err)
	}
	defer rd.Close()
	cfg, err := rd.Get()
	if err != nil {
		panic(err)
	}
	fmt.Printf("rps=%d burst=%d\n", cfg.RPS, cfg.Burst)
	// Output: rps=100 burst=250
}

// WithWriters selects the (M,N) multi-writer composition: several
// writers, totally ordered by tag, same handle surface.
func ExampleNew_multiWriter() {
	reg, err := arcreg.New[string](
		arcreg.WithWriters(2),
		arcreg.WithReaders(1),
		arcreg.WithCodec(arcreg.String()),
		arcreg.WithMaxValueSize(32),
	)
	if err != nil {
		panic(err)
	}
	w0, _ := reg.NewWriter()
	w1, _ := reg.NewWriter()
	rd, _ := reg.NewReader()
	defer rd.Close()

	w0.Set("from writer zero")
	w1.Set("from writer one") // outbids w0's tag
	v, _ := rd.Get()
	fmt.Println(v)
	// Output: from writer one
}

// Capability discovery is first-class: Caps is resolved at
// construction, so code branches on fields instead of type-asserting
// handles.
func ExampleReg_Caps() {
	reg, _ := arcreg.New[int](arcreg.WithAlgorithm(arcreg.Peterson), arcreg.WithReaders(1))
	caps := reg.Caps()
	fmt.Println("zero-copy views:", caps.ZeroCopyView)
	fmt.Println("freshness probe:", caps.FreshProbe)
	fmt.Println("wait-free reads:", caps.WaitFreeRead)
	// Output:
	// zero-copy views: false
	// freshness probe: false
	// wait-free reads: true
}

// Freshness probing: skip work when nothing changed, for the cost of
// one atomic load (no RMW instruction).
func ExampleTypedReader_Fresh() {
	reg, _ := arcreg.New[string](
		arcreg.WithCodec(arcreg.String()),
		arcreg.WithReaders(1), arcreg.WithMaxValueSize(32))
	rd, _ := reg.NewReader()
	defer rd.Close()

	reg.Set("v1")
	rd.Get()
	fmt.Println("after read:", rd.Fresh())

	reg.Set("v2")
	fmt.Println("after write:", rd.Fresh())
	// Output:
	// after read: true
	// after write: false
}

// Values polls for changes: each idle poll is one freshness probe (on
// ARC one atomic load, zero RMW, zero decoding); every observed change
// is yielded exactly once.
func ExampleTypedReader_Values() {
	reg, _ := arcreg.New[int](arcreg.WithReaders(1))
	rd, _ := reg.NewReader()
	defer rd.Close()

	go func() {
		for i := 1; i <= 3; i++ {
			reg.Set(i * 10)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var seen []int
	for v, err := range rd.Values(100 * time.Microsecond) {
		if err != nil {
			panic(err)
		}
		seen = append(seen, v)
		if v == 30 {
			break
		}
	}
	// Polling observes the freshest value, so intermediate publications
	// may be skipped — but changes arrive in order and the last write
	// is always seen.
	fmt.Println("last:", seen[len(seen)-1], "ordered:", sort.IntsAreSorted(seen))
	// Output: last: 30 ordered: true
}

// Watch is the event-driven counterpart of Values: the watcher parks
// on the register's publication sequencer between changes (no polling,
// no idle cost, microsecond wakeups) and the writer's publish path
// stays RMW- and allocation-free while nobody is parked. Delivery is
// at-least-once with latest-value conflation: a slow watcher sees
// fewer, newer values and never blocks the writer.
func ExampleTypedReader_Watch() {
	reg, _ := arcreg.New[int](arcreg.WithReaders(1))
	rd, _ := reg.NewReader()
	defer rd.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	go func() {
		for i := 1; i <= 3; i++ {
			reg.Set(i * 10)
		}
	}()

	var seen []int
	for v, err := range rd.Watch(ctx) {
		if err != nil {
			break // ctx.Err() or a read/decode error
		}
		seen = append(seen, v)
		if v == 30 {
			break
		}
	}
	fmt.Println("last:", seen[len(seen)-1], "ordered:", sort.IntsAreSorted(seen))
	// Output: last: 30 ordered: true
}

// NewMap is the keyed store with the same option set as New: every key
// is its own wait-free ARC register, and the full lifecycle — create,
// update, delete, re-create — runs without a single lock. This is the
// examples/kvstore pattern in miniature.
func ExampleNewMap() {
	type session struct {
		User  string
		Epoch int
	}
	store, err := arcreg.NewMap[session](
		arcreg.WithShards(4),
		arcreg.WithReaders(2),
		arcreg.WithMaxValueSize(256),
	)
	if err != nil {
		panic(err)
	}
	rd, err := store.NewReader()
	if err != nil {
		panic(err)
	}
	defer rd.Close()

	_ = store.Set("alice", session{User: "alice", Epoch: 1})
	_ = store.Set("bob", session{User: "bob", Epoch: 1})
	s, _ := rd.Get("alice")
	fmt.Printf("alice@%d of %d sessions\n", s.Epoch, store.Len())

	// Delete publishes a tombstone; the reader misses on its next probe.
	_ = store.Delete("bob")
	_, err = rd.Get("bob")
	fmt.Println("bob deleted:", err == arcreg.ErrKeyNotFound, "len:", store.Len())

	// A re-created key never resurrects its old value.
	_ = store.Set("bob", session{User: "bob", Epoch: 2})
	s, _ = rd.Get("bob")
	fmt.Println("bob reborn at epoch", s.Epoch)
	// Output:
	// alice@1 of 2 sessions
	// bob deleted: true len: 1
	// bob reborn at epoch 2
}

// Snapshot returns an atomic point-in-time view of every live key —
// across all shards, with zero RMW instructions at steady state.
func ExampleMapOfReader_Snapshot() {
	store, _ := arcreg.NewMap[int](arcreg.WithShards(4), arcreg.WithReaders(1))
	for _, k := range []string{"a", "b", "c"} {
		_ = store.Set(k, 1)
	}
	_ = store.Delete("b")

	rd, _ := store.NewReader()
	defer rd.Close()
	snap, _ := rd.Snapshot()

	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("live keys:", keys)
	// Output: live keys: [a c]
}

// Byte-level access: New over the Raw codec, unwrapped with
// Reg.Register, is the untyped (1,N) register for code that works in
// bytes (and for the benchmark harness).
func ExampleNew_rawRegister() {
	r, err := arcreg.New[[]byte](arcreg.WithCodec(arcreg.Raw()),
		arcreg.WithReaders(2), arcreg.WithMaxValueSize(64))
	if err != nil {
		panic(err)
	}
	reg := r.Register()
	if err := reg.Writer().Write([]byte("hello, wait-free world")); err != nil {
		panic(err)
	}
	rd, err := reg.NewReader()
	if err != nil {
		panic(err)
	}
	defer rd.Close()
	buf := make([]byte, 64)
	n, err := rd.Read(buf)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(buf[:n]))
	// Output: hello, wait-free world
}

// The Raw codec is the typed facade's zero-copy path: Get returns a
// direct view of the register slot (valid until the handle's next
// operation, never to be modified).
func ExampleRaw() {
	reg, _ := arcreg.New[[]byte](
		arcreg.WithCodec(arcreg.Raw()),
		arcreg.WithReaders(1), arcreg.WithMaxValueSize(32))
	reg.Set([]byte("no bytes were copied"))
	rd, _ := reg.NewReader()
	defer rd.Close()
	v, _ := rd.Get()
	fmt.Println(string(v))
	// Output: no bytes were copied
}
