package arcreg_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"arcreg"
)

type appConfig struct {
	Generation int               `json:"generation"`
	Limits     map[string]int    `json:"limits"`
	Flags      []string          `json:"flags"`
	Notes      map[string]string `json:"notes,omitempty"`
}

func TestTypedJSONRoundTrip(t *testing.T) {
	reg, err := arcreg.New[appConfig](arcreg.WithReaders(2), arcreg.WithMaxValueSize(4096))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reg.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	// Before any Set: the zero value.
	got, err := rd.Get()
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 0 || got.Limits != nil {
		t.Fatalf("zero value = %+v", got)
	}

	want := appConfig{
		Generation: 7,
		Limits:     map[string]int{"rps": 100, "burst": 250},
		Flags:      []string{"a", "b"},
	}
	if err := reg.Set(want); err != nil {
		t.Fatal(err)
	}
	got, err = rd.Get()
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 7 || got.Limits["rps"] != 100 || len(got.Flags) != 2 {
		t.Fatalf("got %+v", got)
	}
}

// codecFuncs adapts an encode/decode pair into a Codec — a hand-written
// wire format plugged in through WithCodec.
type codecFuncs[T any] struct {
	enc func(T) ([]byte, error)
	dec func([]byte) (T, error)
}

func (c codecFuncs[T]) Encode(v T) ([]byte, error) { return c.enc(v) }
func (c codecFuncs[T]) Decode(p []byte) (T, error) { return c.dec(p) }
func (codecFuncs[T]) Name() string                 { return "funcs" }

func TestTypedCustomCodec(t *testing.T) {
	typed, err := arcreg.New[uint32](
		arcreg.WithCodec[uint32](codecFuncs[uint32]{
			enc: func(v uint32) ([]byte, error) {
				return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}, nil
			},
			dec: func(p []byte) (uint32, error) {
				if len(p) != 4 {
					return 0, fmt.Errorf("want 4 bytes, got %d", len(p))
				}
				return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24, nil
			},
		}),
		arcreg.WithReaders(1), arcreg.WithMaxValueSize(16))
	if err != nil {
		t.Fatal(err)
	}
	if typed.Codec().Name() != "funcs" {
		t.Fatalf("Codec() = %s", typed.Codec().Name())
	}
	rd, err := typed.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{0xDEADBEEF, 1, 0, 1 << 31} {
		if err := typed.Set(v); err != nil {
			t.Fatal(err)
		}
		got, err := rd.Get()
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("got %#x want %#x", got, v)
		}
	}
}

func TestTypedEncodeErrorsSurface(t *testing.T) {
	boom := errors.New("boom")
	// WithInitialBytes seeds the register without calling the failing
	// encoder.
	typed, err := arcreg.New[int](
		arcreg.WithCodec[int](codecFuncs[int]{
			enc: func(int) ([]byte, error) { return nil, boom },
			dec: func([]byte) (int, error) { return 0, nil },
		}),
		arcreg.WithInitialBytes([]byte{}),
		arcreg.WithReaders(1), arcreg.WithMaxValueSize(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := typed.Set(1); !errors.Is(err, boom) {
		t.Fatalf("Set err = %v", err)
	}
}

func TestTypedOversizedValueRejected(t *testing.T) {
	reg, err := arcreg.New[appConfig](arcreg.WithReaders(1), arcreg.WithMaxValueSize(64))
	if err != nil {
		t.Fatal(err)
	}
	big := appConfig{Notes: map[string]string{"k": string(make([]byte, 200))}}
	if err := reg.Set(big); !errors.Is(err, arcreg.ErrValueTooLarge) {
		t.Fatalf("oversized Set: %v", err)
	}
	// A zero value that does not fit is caught at construction.
	if _, err := arcreg.New[appConfig](arcreg.WithReaders(1), arcreg.WithMaxValueSize(8)); err == nil {
		t.Fatal("New accepted a MaxValueSize below the zero value's encoding")
	}
}

func TestTypedNonViewerBackend(t *testing.T) {
	typed, err := arcreg.New[string](arcreg.WithCodec(arcreg.String()),
		arcreg.WithAlgorithm(arcreg.Peterson),
		arcreg.WithReaders(1), arcreg.WithMaxValueSize(128))
	if err != nil {
		t.Fatal(err)
	}
	if err := typed.Set("through peterson"); err != nil {
		t.Fatal(err)
	}
	rd, err := typed.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rd.Get()
	if err != nil || got != "through peterson" {
		t.Fatalf("got %q, %v", got, err)
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTypedConcurrent(t *testing.T) {
	reg, err := arcreg.New[appConfig](arcreg.WithReaders(4), arcreg.WithMaxValueSize(2048))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		rd, err := reg.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rd.Close()
			last := -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				cfg, err := rd.Get()
				if err != nil {
					t.Error(err)
					return
				}
				if cfg.Generation < last {
					t.Errorf("generation regressed: %d after %d", cfg.Generation, last)
					return
				}
				last = cfg.Generation
			}
		}()
	}
	for gen := 1; gen <= 500; gen++ {
		if err := reg.Set(appConfig{Generation: gen, Flags: []string{"x"}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestPublicDynamicBuffers(t *testing.T) {
	reg, err := newRawRegister(1, 1<<20, arcreg.WithARC(arcreg.WithDynamicBuffers()))
	if err != nil {
		t.Fatal(err)
	}
	rd, _ := reg.NewReader()
	for i := 0; i < 20; i++ {
		val := make([]byte, 10+i*1000)
		for j := range val {
			val[j] = byte(i)
		}
		if err := reg.Writer().Write(val); err != nil {
			t.Fatal(err)
		}
		v, ok := view(rd)
		if !ok || len(v) != len(val) {
			t.Fatalf("view %d bytes, want %d", len(v), len(val))
		}
	}
}
