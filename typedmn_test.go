package arcreg_test

import (
	"sync"
	"testing"

	"arcreg"
)

// TestTypedMNRoundtrip covers the typed (M,N) path: M writers publish
// typed values through their own handles, readers decode the freshest
// one, and tags stay monotone per reader.
func TestTypedMNRoundtrip(t *testing.T) {
	type state struct {
		Writer int
		Round  int
	}
	reg, err := arcreg.New[state](arcreg.WithWriters(3), arcreg.WithReaders(2), arcreg.WithMaxValueSize(256))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reg.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	// The zero value seeds the register: a Get before any Set decodes.
	got, err := rd.Get()
	if err != nil {
		t.Fatal(err)
	}
	if got != (state{}) {
		t.Fatalf("genesis value = %+v", got)
	}

	var writers []*arcreg.TypedWriter[state]
	for i := 0; i < 3; i++ {
		w, err := reg.NewWriter()
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		writers = append(writers, w)
	}
	last := rd.MNReader().LastTag()
	for round := 1; round <= 5; round++ {
		for _, w := range writers {
			if err := w.Set(state{Writer: w.ID(), Round: round}); err != nil {
				t.Fatal(err)
			}
			got, err := rd.Get()
			if err != nil {
				t.Fatal(err)
			}
			if got.Writer != w.ID() || got.Round != round {
				t.Fatalf("got %+v after writer %d round %d", got, w.ID(), round)
			}
			tag := rd.MNReader().LastTag()
			if tag.Less(last) {
				t.Fatalf("tag regressed: %v after %v", tag, last)
			}
			last = tag
		}
	}
}

// TestTypedMNConcurrent exercises the typed path under concurrency:
// every writer publishes its own counter, every reader sees values that
// never regress per writer.
func TestTypedMNConcurrent(t *testing.T) {
	type tick struct{ W, N int }
	reg, err := arcreg.New[tick](arcreg.WithWriters(2), arcreg.WithReaders(2), arcreg.WithMaxValueSize(128))
	if err != nil {
		t.Fatal(err)
	}
	const perW = 200
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w, err := reg.NewWriter()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.Close()
			for n := 1; n <= perW; n++ {
				if err := w.Set(tick{W: w.ID(), N: n}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for i := 0; i < 2; i++ {
		rd, err := reg.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		rg.Add(1)
		go func() {
			defer rg.Done()
			defer rd.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := rd.Get()
				if err != nil {
					t.Error(err)
					return
				}
				if v.N < 0 || v.N > perW || v.W < 0 || v.W > 1 {
					t.Errorf("impossible value %+v", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
}
