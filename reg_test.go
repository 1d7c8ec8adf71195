package arcreg_test

// Tests for the generics-first facade: New's option handling, the
// capability-complete handles, the Values poll iterator — and the full
// regtest conformance battery run THROUGH the typed handles (New +
// Raw codec + TypedWriter/TypedReader adapted back to the byte
// contract), so the facade plumbing is held to exactly the same
// behavioral requirements as the raw algorithms.

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"arcreg"
	"arcreg/internal/register"
	"arcreg/internal/regtest"
)

// facadeAlgs maps every (1,N) algorithm the facade constructs to the
// number of readers its battery deployments need.
var facadeAlgs = []arcreg.AlgorithmID{
	arcreg.ARC, arcreg.RF, arcreg.Peterson, arcreg.Lock,
	arcreg.Seqlock, arcreg.LeftRight,
}

// handleRegister adapts a *Reg[[]byte] and its typed handles to the
// register.Register contract: every battery operation travels through
// the facade's TypedWriter/TypedReader, not the raw register.
type handleRegister struct {
	reg *arcreg.Reg[[]byte]
	w   *arcreg.TypedWriter[[]byte]
}

func (h *handleRegister) Name() string            { return h.reg.Algorithm().String() }
func (h *handleRegister) MaxReaders() int         { return h.reg.Readers() }
func (h *handleRegister) MaxValueSize() int       { return h.reg.MaxValueSize() }
func (h *handleRegister) Writer() register.Writer { return (*handleWriter)(h) }

func (h *handleRegister) NewReader() (register.Reader, error) {
	tr, err := h.reg.NewReader()
	if err != nil {
		return nil, err
	}
	caps := h.reg.Caps()
	base := handleReader{tr: tr}
	switch {
	case caps.ZeroCopyView && caps.FreshProbe:
		return &freshViewerReader{viewerReader{base}}, nil
	case caps.ZeroCopyView:
		return &viewerReader{base}, nil
	default:
		return &base, nil
	}
}

// handleWriter funnels battery writes through TypedWriter.SetBytes.
type handleWriter handleRegister

func (h *handleWriter) Write(p []byte) error { return h.w.SetBytes(p) }

type handleReader struct {
	tr *arcreg.TypedReader[[]byte]
}

func (r *handleReader) Read(dst []byte) (int, error) { return r.tr.ReadBytes(dst) }
func (r *handleReader) Close() error                 { return r.tr.Close() }

// viewerReader adds Viewer for algorithms whose Caps promise it, and
// freshViewerReader adds FreshnessProber on top — the battery's
// capability subtests run exactly when the facade's Caps say they
// should.
type viewerReader struct{ handleReader }

func (r *viewerReader) View() ([]byte, error) { return r.tr.ViewBytes() }

type freshViewerReader struct{ viewerReader }

func (r *freshViewerReader) Fresh() bool { return r.tr.Fresh() }

// TestFacadeConformance runs the cross-algorithm battery through the
// facade handles for every algorithm New constructs.
func TestFacadeConformance(t *testing.T) {
	for _, alg := range facadeAlgs {
		t.Run(alg.String(), func(t *testing.T) {
			regtest.ConformanceConstructor(t, func(t *testing.T, readers, size int, initial []byte) register.Register {
				t.Helper()
				reg, err := arcreg.New[[]byte](
					arcreg.WithAlgorithm(alg),
					arcreg.WithReaders(readers),
					arcreg.WithMaxValueSize(size),
					arcreg.WithCodec(arcreg.Raw()),
					arcreg.WithInitialBytes(initial),
				)
				if err != nil {
					t.Fatalf("New[%s]: %v", alg, err)
				}
				w, err := reg.NewWriter()
				if err != nil {
					t.Fatalf("NewWriter[%s]: %v", alg, err)
				}
				return &handleRegister{reg: reg, w: w}
			})
		})
	}
}

// TestFacadeDefaults: New with no options is an ARC register over JSON
// seeded with the zero value.
func TestFacadeDefaults(t *testing.T) {
	type limits struct {
		RPS   int `json:"rps"`
		Burst int `json:"burst"`
	}
	reg, err := arcreg.New[limits]()
	if err != nil {
		t.Fatal(err)
	}
	if reg.Algorithm() != arcreg.ARC {
		t.Errorf("default algorithm = %s, want arc", reg.Algorithm())
	}
	if reg.Writers() != 1 {
		t.Errorf("Writers() = %d", reg.Writers())
	}
	if got := reg.Codec().Name(); got != "json" {
		t.Errorf("default codec = %q, want json", got)
	}
	caps := reg.Caps()
	if !caps.ZeroCopyView || !caps.FreshProbe || !caps.WaitFreeRead || !caps.WaitFreeWrite {
		t.Errorf("ARC caps incomplete: %+v", caps)
	}
	rd, err := reg.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	v, err := rd.Get()
	if err != nil {
		t.Fatalf("Get before first Set: %v", err)
	}
	if v != (limits{}) {
		t.Errorf("zero-value seed decoded to %+v", v)
	}
	if err := reg.Set(limits{RPS: 100, Burst: 250}); err != nil {
		t.Fatal(err)
	}
	if v, err = rd.Get(); err != nil || v.RPS != 100 || v.Burst != 250 {
		t.Errorf("Get = %+v, %v", v, err)
	}
	if !rd.Fresh() {
		t.Error("just-read handle not fresh")
	}
	if st := rd.ReadStats(); st.Ops != 2 {
		t.Errorf("ReadStats.Ops = %d, want 2", st.Ops)
	}
}

// TestFacadeEveryAlgorithm drives a typed set/get round trip over each
// algorithm, exercising both the viewer and the copying decode paths.
func TestFacadeEveryAlgorithm(t *testing.T) {
	for _, alg := range facadeAlgs {
		t.Run(alg.String(), func(t *testing.T) {
			reg, err := arcreg.New[map[string]int](
				arcreg.WithAlgorithm(alg),
				arcreg.WithReaders(2),
				arcreg.WithMaxValueSize(256),
			)
			if err != nil {
				t.Fatal(err)
			}
			if got := reg.Algorithm(); got != alg {
				t.Errorf("Algorithm() = %s, want %s", got, alg)
			}
			rd, err := reg.NewReader()
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			if err := reg.Set(map[string]int{"a": 1, "b": 2}); err != nil {
				t.Fatal(err)
			}
			v, err := rd.Get()
			if err != nil {
				t.Fatal(err)
			}
			if v["a"] != 1 || v["b"] != 2 {
				t.Errorf("Get = %v", v)
			}
			if _, err := rd.ViewBytes(); !reg.Caps().ZeroCopyView {
				if !errors.Is(err, arcreg.ErrNoView) {
					t.Errorf("ViewBytes without views: err = %v, want ErrNoView", err)
				}
			} else if err != nil {
				t.Errorf("ViewBytes: %v", err)
			}
		})
	}
}

// TestFacadeMN: WithWriters selects the (M,N) composition; handles keep
// the full capability surface (freshness probe included, via the new
// composite Fresh).
func TestFacadeMN(t *testing.T) {
	reg, err := arcreg.New[string](
		arcreg.WithWriters(3),
		arcreg.WithReaders(2),
		arcreg.WithCodec(arcreg.String()),
		arcreg.WithMaxValueSize(64),
	)
	if err != nil {
		t.Fatal(err)
	}
	if reg.MN() == nil || reg.Register() != nil {
		t.Fatal("MN shape not selected")
	}
	if reg.Writers() != 3 {
		t.Errorf("Writers() = %d", reg.Writers())
	}
	if !reg.Caps().FreshProbe || !reg.Caps().ZeroCopyView {
		t.Errorf("MN caps incomplete: %+v", reg.Caps())
	}

	w0, err := reg.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	w1, err := reg.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	if w0.ID() == w1.ID() {
		t.Errorf("writer identities collide: %d", w0.ID())
	}

	rd, err := reg.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	if err := w0.Set("from w0"); err != nil {
		t.Fatal(err)
	}
	if err := w1.Set("from w1"); err != nil {
		t.Fatal(err)
	}
	v, err := rd.Get()
	if err != nil {
		t.Fatal(err)
	}
	if v != "from w1" {
		t.Errorf("Get = %q, want the outbidding write", v)
	}
	if !rd.Fresh() {
		t.Error("just-read MN handle not fresh")
	}
	if err := w0.Set("again"); err != nil {
		t.Fatal(err)
	}
	if rd.Fresh() {
		t.Error("stale MN handle reports fresh")
	}
	if v, _ = rd.Get(); v != "again" {
		t.Errorf("Get after republish = %q", v)
	}
	if rd.MNReader() == nil || rd.MNReader().LastTag().Seq == 0 {
		t.Error("MNReader tag access lost")
	}

	// Close releases the identity for reuse.
	if err := w0.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := reg.NewWriter()
	if err != nil {
		t.Fatalf("NewWriter after Close: %v", err)
	}
	w2.Close()
}

// TestFacadeOptionValidation pins the construction-time errors.
func TestFacadeOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		err  string
		opts []arcreg.Option
	}{
		{"writers-need-arc", "requires the ARC algorithm", []arcreg.Option{
			arcreg.WithAlgorithm(arcreg.RF), arcreg.WithWriters(2)}},
		{"zero-writers", "must be positive", []arcreg.Option{arcreg.WithWriters(-1)}},
		{"arc-opts-on-rf", "ARC algorithm only", []arcreg.Option{
			arcreg.WithAlgorithm(arcreg.RF), arcreg.WithARC(arcreg.WithoutFastPath())}},
		{"arc-opts-on-mn", "ARC algorithm only", []arcreg.Option{
			arcreg.WithWriters(2), arcreg.WithARC(arcreg.WithoutFastPath())}},
		{"gate-ablation-needs-mn", "WithWriters", []arcreg.Option{arcreg.WithoutFreshGate()}},
		{"initial-conflict", "mutually exclusive", []arcreg.Option{
			arcreg.WithInitial(1), arcreg.WithInitialBytes([]byte("1"))}},
		{"codec-type-mismatch", "not a Codec", []arcreg.Option{arcreg.WithCodec(arcreg.String())}},
		{"initial-type-mismatch", "not a", []arcreg.Option{arcreg.WithInitial("nope")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := arcreg.New[int](tc.opts...)
			if err == nil {
				t.Fatal("New succeeded, want error")
			}
			if !contains(err.Error(), tc.err) {
				t.Errorf("error %q does not mention %q", err, tc.err)
			}
		})
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestFacadeInitial: WithInitial seeds through the codec.
func TestFacadeInitial(t *testing.T) {
	reg, err := arcreg.New[int](arcreg.WithInitial(42), arcreg.WithReaders(1))
	if err != nil {
		t.Fatal(err)
	}
	v, err := reg.Get()
	if err != nil || v != 42 {
		t.Fatalf("Get = %d, %v; want 42", v, err)
	}
}

// TestFacadeValues exercises the poll iterator on the probe path (ARC),
// the copy-and-compare fallback (Peterson, seqlock), and the composite
// probe (MN): it must yield the initial value, observe the final write,
// and never yield a duplicate of an unchanged publication.
func TestFacadeValues(t *testing.T) {
	shapes := []struct {
		name string
		opts []arcreg.Option
	}{
		{"arc", nil},
		{"peterson", []arcreg.Option{arcreg.WithAlgorithm(arcreg.Peterson)}},
		{"seqlock", []arcreg.Option{arcreg.WithAlgorithm(arcreg.Seqlock)}},
		{"mn", []arcreg.Option{arcreg.WithWriters(2)}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			const final = 20
			opts := append([]arcreg.Option{arcreg.WithReaders(2)}, shape.opts...)
			reg, err := arcreg.New[int](opts...)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := reg.NewReader()
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()

			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 1; i <= final; i++ {
					if err := reg.Set(i); err != nil {
						t.Errorf("Set(%d): %v", i, err)
						return
					}
					time.Sleep(50 * time.Microsecond)
				}
			}()

			var got []int
			deadline := time.Now().Add(10 * time.Second)
			for v, err := range rd.Values(10 * time.Microsecond) {
				if err != nil {
					t.Fatalf("Values: %v", err)
				}
				got = append(got, v)
				if v == final || time.Now().After(deadline) {
					break
				}
			}
			wg.Wait()
			if len(got) == 0 || got[len(got)-1] != final {
				t.Fatalf("Values ended at %v, want trailing %d", got, final)
			}
			for i := 1; i < len(got); i++ {
				if got[i] < got[i-1] {
					t.Fatalf("Values regressed: %v", got)
				}
				if got[i] == got[i-1] {
					t.Fatalf("Values yielded unchanged publication twice: %v", got)
				}
			}
		})
	}
}

// TestFacadeValuesStopsOnBreak: breaking the range loop terminates the
// iterator promptly (the yield false path).
func TestFacadeValuesStopsOnBreak(t *testing.T) {
	reg, err := arcreg.New[int](arcreg.WithReaders(1))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reg.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	n := 0
	for range rd.Values(0) {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("yielded %d times before break", n)
	}
}

// TestFacadeDefaultReadersClamped: the GOMAXPROCS reader default must
// be clamped to the algorithm's architectural bound, so algorithm
// selection works out of the box on many-core machines (RF allows only
// 58 readers).
func TestFacadeDefaultReadersClamped(t *testing.T) {
	old := runtime.GOMAXPROCS(64)
	defer runtime.GOMAXPROCS(old)
	reg, err := arcreg.New[int](arcreg.WithAlgorithm(arcreg.RF))
	if err != nil {
		t.Fatalf("New[RF] at GOMAXPROCS=64: %v", err)
	}
	if got := reg.Readers(); got > arcreg.MaxRFReaders {
		t.Errorf("Readers() = %d > RF limit %d", got, arcreg.MaxRFReaders)
	}
}

// TestFacadeOneShotGetOwnsResult: the one-shot Reg.Get must return
// caller-owned data even under the aliasing Raw codec — the temporary
// handle is closed before Get returns, so a slot alias would dangle.
func TestFacadeOneShotGetOwnsResult(t *testing.T) {
	reg, err := arcreg.New[[]byte](
		arcreg.WithCodec(arcreg.Raw()),
		arcreg.WithReaders(2), arcreg.WithMaxValueSize(64))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("one-shot-owned-payload")
	if err := reg.Set(want); err != nil {
		t.Fatal(err)
	}
	got, err := reg.Get()
	if err != nil {
		t.Fatal(err)
	}
	// Recycle every slot: with no handle pinning anything, the slot the
	// one-shot read saw gets rewritten.
	rd, err := reg.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	for i := 0; i < 8; i++ {
		if err := reg.Set(bytes.Repeat([]byte{byte('0' + i)}, 32)); err != nil {
			t.Fatal(err)
		}
		if _, err := rd.Get(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Errorf("one-shot Get result mutated by slot recycling: %q", got)
	}
}

// TestFacadeSetRecoversAfterWriterRelease: a Set that lost the race for
// an (M,N) writer identity must succeed once one is released — the
// failure is not cached.
func TestFacadeSetRecoversAfterWriterRelease(t *testing.T) {
	reg, err := arcreg.New[int](arcreg.WithWriters(2), arcreg.WithReaders(1))
	if err != nil {
		t.Fatal(err)
	}
	w0, err := reg.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	w1, err := reg.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	if err := reg.Set(1); err == nil {
		t.Fatal("Set succeeded with all writer identities taken")
	}
	if err := w0.Close(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Set(2); err != nil {
		t.Fatalf("Set after identity release: %v", err)
	}
	v, err := reg.Get()
	if err != nil || v != 2 {
		t.Fatalf("Get = %d, %v", v, err)
	}
}

// TestFacadeValuesDoesNotPinViews: Values' fallback poll must not hold
// a zero-copy view across its inter-poll sleep — on the lock and
// Left-Right registers a pinned view blocks the writer for the whole
// poll interval.
func TestFacadeValuesDoesNotPinViews(t *testing.T) {
	for _, alg := range []arcreg.AlgorithmID{arcreg.Lock, arcreg.LeftRight} {
		t.Run(alg.String(), func(t *testing.T) {
			reg, err := arcreg.New[int](
				arcreg.WithAlgorithm(alg), arcreg.WithReaders(1))
			if err != nil {
				t.Fatal(err)
			}
			rd, err := reg.NewReader()
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()

			done := make(chan struct{})
			go func() {
				defer close(done)
				for v, err := range rd.Values(400 * time.Millisecond) {
					if err != nil {
						t.Errorf("Values: %v", err)
						return
					}
					if v == 7 {
						return
					}
				}
			}()
			time.Sleep(20 * time.Millisecond) // iterator is now mid-sleep
			start := time.Now()
			if err := reg.Set(7); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d > 200*time.Millisecond {
				t.Errorf("Set blocked %v behind the poll interval — view pinned across the sleep", d)
			}
			<-done
		})
	}
}

// TestFacadeRawZeroSeed: the zero-value seed survives codecs whose zero
// encoding is nil (Raw) — the first Get must see the empty value, not
// the registers' one-zero-byte default.
func TestFacadeRawZeroSeed(t *testing.T) {
	reg, err := arcreg.New[[]byte](arcreg.WithCodec(arcreg.Raw()), arcreg.WithReaders(1))
	if err != nil {
		t.Fatal(err)
	}
	v, err := reg.Get()
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Errorf("Get before first Set = %v, want the empty zero value", v)
	}

	// Same through WithInitial of a nil-encoding value.
	reg2, err := arcreg.New[[]byte](
		arcreg.WithCodec(arcreg.Raw()), arcreg.WithReaders(1),
		arcreg.WithInitial([]byte(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if v, err = reg2.Get(); err != nil || len(v) != 0 {
		t.Errorf("Get of nil WithInitial = %v, %v; want empty", v, err)
	}
}
