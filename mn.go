package arcreg

import "arcreg/internal/mnreg"

// MNTag is the version tag of an (M,N) value: writes are totally ordered
// by (Seq, Writer).
type MNTag = mnreg.Tag

// MNWriter is one of the M write endpoints. One goroutine per handle.
type MNWriter interface {
	// Write publishes a new value, outbidding every tag currently
	// visible. Wait-free, O(M) ARC operations — and unchanged components
	// cost one atomic load each under the freshness-gated collect.
	Write(p []byte) error
	// ID reports the writer identity in [0, M).
	ID() int
	// WriteStats reports the publish-side counters of the writer's own
	// component plus the RMW instructions its tag collect executed.
	WriteStats() WriteStats
	// Close releases the identity for reuse.
	Close() error
}

// MNReader is one of the N read endpoints. One goroutine per handle.
type MNReader interface {
	// View returns the freshest value without copying; valid until the
	// handle's next operation. When no writer published since the last
	// View, the cost is one atomic load per component — or one atomic
	// load total once the adaptive epoch gate has validated a quiescent
	// scan: zero RMW instructions and zero tag decoding either way.
	View() ([]byte, error)
	// Read copies the freshest value into dst.
	Read(dst []byte) (int, error)
	// LastTag reports the tag of the last value returned.
	LastTag() MNTag
	// Fresh reports whether the last View/Read still returns the
	// composite's current value, without advancing the handle's cache —
	// one atomic load under a validated quiescent epoch, one load per
	// component otherwise. Conservative: a publish that loses the tag
	// argmax still reports stale. A handle that never read reports
	// false.
	Fresh() bool
	// ReadStats reports composite read counters: Ops counts composite
	// reads, FastPath counts all-fresh scans, RMW sums component RMW.
	ReadStats() ReadStats
	// Close releases the handle.
	Close() error
}

// MNRegister is a wait-free multi-word atomic (M,N) register composed
// from M ARC (1,N) registers — the construction the paper motivates in
// its introduction. Every operation is wait-free with O(M) cost, and the
// freshness-gated collect makes steady-state reads cost M atomic loads
// with zero RMW instructions (see internal/mnreg for the protocol).
// New with WithWriters(m > 1) builds one; Reg.MN exposes it.
type MNRegister struct {
	reg *mnreg.Register
}

// NewWriter allocates one of the M writer identities.
func (r *MNRegister) NewWriter() (MNWriter, error) { return r.reg.NewWriter() }

// NewReader allocates one of the N reader handles.
func (r *MNRegister) NewReader() (MNReader, error) { return r.reg.NewReader() }

// Caps reports the composite's capability set: the freshness probe and
// zero-copy views survive the (M,N) composition, and every operation
// stays wait-free.
func (r *MNRegister) Caps() Caps { return r.reg.Caps() }

// Writers reports M.
func (r *MNRegister) Writers() int { return r.reg.Writers() }

// Readers reports N.
func (r *MNRegister) Readers() int { return r.reg.Readers() }

// MaxValueSize reports the user-value bound.
func (r *MNRegister) MaxValueSize() int { return r.reg.MaxValueSize() }

// Stats returns the composite's observability tree: the shared
// publication epoch, publication-window progress (pub_started /
// pub_done), identity occupancy, and one child per ARC component.
// Collecting it only loads — no RMW on any register path. Watcher
// backpressure ledgers live on the owning Reg (see Reg.Stats); a raw
// MNRegister reports the protocol side only.
func (r *MNRegister) Stats() Stats { return r.reg.Stats() }
