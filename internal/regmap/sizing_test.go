package regmap

import (
	"fmt"
	"runtime"
	"testing"
)

// TestSlotSizingMapFootprint bounds the heap a map retains per key. Key
// registers size their slot buffers to the values they hold, so 1024
// keys of ~150-byte values at N=2 and the default MaxValueSize must each
// cost well under one MaxValueSize page per slot.
func TestSlotSizingMapFootprint(t *testing.T) {
	const (
		keys     = 1024
		maxBytes = 4 << 10 // per key
	)
	val := func(i, round int) []byte {
		return []byte(fmt.Sprintf(`{"sym":"K%04d","round":%d,"bid":%0120d}`, i, round, i))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	m := newMap(t, Config{MaxReaders: 2})
	// One create plus enough updates that every slot of every key register
	// has held a value.
	for round := 0; round < 5; round++ {
		for i := 0; i < keys; i++ {
			if err := m.Set(fmt.Sprintf("key-%04d", i), val(i, round)); err != nil {
				t.Fatal(err)
			}
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	perKey := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / keys
	runtime.KeepAlive(m)
	t.Logf("%d keys of %d-byte values: %d bytes retained per key", keys, len(val(0, 0)), perKey)
	if perKey >= maxBytes {
		t.Fatalf("map retains %d bytes per key, want < %d", perKey, maxBytes)
	}
}
