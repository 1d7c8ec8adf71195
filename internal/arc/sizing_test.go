package arc

// Tests for value-sized slot buffers: the slab a register allocates at its
// first non-empty value, the per-slot stripes, and the geometric growth of
// a slot whose value outgrows its buffer. CI runs them by name under -race
// ("Slot sizing battery").

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"arcreg/internal/membuf"
	"arcreg/internal/register"
)

// TestSlotSizingStress starts from the one-byte default and publishes
// versioned payloads whose sizes jump between membuf.MinPayload and
// MaxValueSize in both directions, so slots take their stripes, outgrow
// them and shrink back while readers hold views. Every view must verify
// whole (no torn or truncated value) and versions never regress.
func TestSlotSizingStress(t *testing.T) {
	const (
		readers = 4
		writes  = 3000
		maxSize = 4096
	)
	r := newReg(t, readers, maxSize, Options{})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		rd, err := r.NewReaderHandle()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(rd *Reader) {
			defer wg.Done()
			defer rd.Close()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := rd.View()
				if err != nil {
					errs <- err
					return
				}
				if last == 0 && bytes.Equal(v, []byte{0}) {
					continue // the initial value, before the first write lands
				}
				ver, err := membuf.Verify(v)
				if err != nil {
					errs <- fmt.Errorf("view of %d bytes: %w", len(v), err)
					return
				}
				if ver < last {
					errs <- fmt.Errorf("version regressed: %d after %d", ver, last)
					return
				}
				last = ver
			}
		}(rd)
	}

	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, maxSize)
	size := membuf.MinPayload
	for i := uint64(1); i <= writes; i++ {
		switch i % 4 {
		case 0: // jump anywhere in range
			size = membuf.MinPayload + rng.Intn(maxSize-membuf.MinPayload+1)
		case 1: // grow slowly
			size = min(size+1+rng.Intn(64), maxSize)
		case 2: // the extremes
			size = []int{membuf.MinPayload, maxSize}[rng.Intn(2)]
		case 3: // shrink
			size = max(size/2, membuf.MinPayload)
		}
		if err := r.Write(membuf.Encode(buf[:size], i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSlotSizingTruncation is the regression test for a slot buffer whose
// length trails its capacity: a value longer than the initial one but
// within slot 0's stripe must land in slot 0 and read back whole ("11"
// must not come back as "1").
func TestSlotSizingTruncation(t *testing.T) {
	r, err := New(register.Config{MaxReaders: 1, MaxValueSize: 4096, Initial: []byte("1")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := r.NewReaderHandle()
	if err != nil {
		t.Fatal(err)
	}
	// Reading the initial value and then moving on frees slot 0 through
	// the reader's release, so the writer's next pick is slot 0.
	if got, err := rd.View(); err != nil || !bytes.Equal(got, []byte("1")) {
		t.Fatalf("initial view = %q, %v", got, err)
	}
	hitSlot0 := false
	for i := 0; i < 3*r.SlotCount(); i++ {
		val := bytes.Repeat([]byte{'1' + byte(i%9)}, 2+i)
		if err := r.Write(val); err != nil {
			t.Fatal(err)
		}
		if r.lastSlot == 0 && len(val) <= r.stride {
			hitSlot0 = true
		}
		got, err := rd.View()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("write %d (slot %d): read back %q, want %q", i, r.lastSlot, got, val)
		}
	}
	if !hitSlot0 {
		t.Fatal("no write reused slot 0 within its stripe; the test no longer covers the case")
	}
}

// TestSlotSizingAlignment checks that every slot buffer starts on a cache
// line and spans whole lines, whether it is a slab stripe or a grown
// buffer, so no two slots' buffers ever share a line.
func TestSlotSizingAlignment(t *testing.T) {
	for _, maxSize := range []int{100, 4096} {
		r := newReg(t, 3, maxSize, Options{})
		check := func(stage string) {
			t.Helper()
			for i := range r.slots {
				c := r.slots[i].content
				if len(c) != cap(c) {
					t.Errorf("max %d, %s: slot %d len %d != cap %d", maxSize, stage, i, len(c), cap(c))
				}
				if len(c) == 0 {
					continue
				}
				if addr := uintptr(unsafe.Pointer(&c[0])); addr%membuf.Alignment != 0 {
					t.Errorf("max %d, %s: slot %d buffer at %#x is not %d-byte aligned",
						maxSize, stage, i, addr, membuf.Alignment)
				}
				if cap(c)%membuf.Alignment != 0 {
					t.Errorf("max %d, %s: slot %d capacity %d is not a multiple of %d",
						maxSize, stage, i, cap(c), membuf.Alignment)
				}
			}
		}
		check("initial")
		for _, size := range []int{1, 30, 64, 65, maxSize / 2, 7, maxSize, 1} {
			for j := 0; j < r.SlotCount(); j++ {
				if err := r.Write(bytes.Repeat([]byte{byte(j)}, size)); err != nil {
					t.Fatal(err)
				}
			}
			check(fmt.Sprintf("after %d-byte writes", size))
		}
	}
}

// TestSlotSizingSteadyStateAllocs grows the values from one byte to
// MaxValueSize until every slot has grown, then requires that later
// writes of any size allocate nothing.
func TestSlotSizingSteadyStateAllocs(t *testing.T) {
	const maxSize = 4096
	r := newReg(t, 2, maxSize, Options{})
	val := bytes.Repeat([]byte{9}, maxSize)
	for size := 1; size < maxSize; size += size/2 + 1 {
		if err := r.Write(val[:size]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*r.SlotCount(); i++ {
		if err := r.Write(val); err != nil {
			t.Fatal(err)
		}
	}
	for i := range r.slots {
		if got := len(r.slots[i].content); got < maxSize {
			t.Fatalf("slot %d holds %d bytes after MaxValueSize writes", i, got)
		}
	}
	sizes := []int{1, maxSize, 150, 4000, 64, maxSize}
	if avg := testing.AllocsPerRun(1, func() {
		for i := 0; i < 500; i++ {
			if err := r.Write(val[:sizes[i%len(sizes)]]); err != nil {
				t.Fatal(err)
			}
		}
	}); avg != 0 {
		t.Errorf("500 steady-state writes allocated %.0f times, want 0", avg)
	}
}

// TestSlotSizingEmptyValue: a slot that has only ever held empty values
// has no buffer yet, and an empty value still reads back non-nil.
func TestSlotSizingEmptyValue(t *testing.T) {
	r, err := New(register.Config{MaxReaders: 1, MaxValueSize: 64, Initial: []byte{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd, _ := r.NewReaderHandle()
	for i := 0; i < 2*r.SlotCount(); i++ {
		v, err := rd.View()
		if err != nil || v == nil || len(v) != 0 {
			t.Fatalf("read %d: view = %#v, %v; want a non-nil empty value", i, v, err)
		}
		if err := r.Write(nil); err != nil {
			t.Fatal(err)
		}
	}
	if r.slab != nil {
		t.Fatalf("empty values allocated a %d-byte slab", len(r.slab))
	}
}
