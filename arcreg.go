package arcreg

import (
	"arcreg/internal/arc"
	"arcreg/internal/register"
	"arcreg/internal/rf"
)

// Register is a multi-word atomic (1,N) register: one writer endpoint and
// up to MaxReaders concurrent reader handles.
type Register = register.Register

// Writer stores new values. Use from one goroutine at a time — the "1" in
// (1,N).
type Writer = register.Writer

// Reader retrieves values. One handle per goroutine; handles carry the
// per-process protocol state.
type Reader = register.Reader

// Viewer is implemented by readers supporting zero-copy views (ARC, RF and
// the lock register; Peterson reads inherently copy).
type Viewer = register.Viewer

// ReadStats counts per-handle read work (operations, RMW instructions,
// fast-path hits); see TypedReader.ReadStats. Its Snapshot method
// renders the counters as a node of the Stats observability tree (see
// Reg.Stats).
type ReadStats = register.ReadStats

// WriteStats counts writer work (operations, RMW instructions, slot-scan
// probes, hint hits); see TypedWriter.WriteStats. Its Snapshot method
// renders the counters as a node of the Stats observability tree (see
// Reg.Stats).
type WriteStats = register.WriteStats

// Errors returned by register operations.
var (
	// ErrTooManyReaders: NewReader beyond MaxReaders.
	ErrTooManyReaders = register.ErrTooManyReaders
	// ErrValueTooLarge: Write beyond MaxValueSize.
	ErrValueTooLarge = register.ErrValueTooLarge
	// ErrReaderClosed: operation on a closed handle.
	ErrReaderClosed = register.ErrReaderClosed
	// ErrBufferTooSmall: Read destination cannot hold the value.
	ErrBufferTooSmall = register.ErrBufferTooSmall
)

// MaxARCReaders is ARC's architectural reader bound on 64-bit machines:
// 2³²−2 (the paper's headline scalability figure).
const MaxARCReaders = 1<<32 - 2

// MaxRFReaders is the RF baseline's architectural bound: 58.
const MaxRFReaders = rf.MaxReaders

// ARCOption tunes the ARC register.
type ARCOption func(*arc.Options)

// WithoutFastPath disables the R1–R2 read fast path, forcing RMW
// instructions on every read. Benchmarks use it to quantify the
// optimization; applications should not.
func WithoutFastPath() ARCOption {
	return func(o *arc.Options) { o.DisableFastPath = true }
}

// WithoutFreeHint disables the §3.4 free-slot hint, leaving the writer
// with a plain linear slot scan. Benchmarks only.
func WithoutFreeHint() ARCOption {
	return func(o *arc.Options) { o.DisableFreeHint = true }
}

// WithStaticReaders reproduces the paper's Algorithm 1 initialization:
// all N reader identities are pre-charged onto the initial value's slot
// and exactly MaxReaders handles can ever be created.
func WithStaticReaders() ARCOption {
	return func(o *arc.Options) { o.StaticInit = true }
}

// WithDynamicBuffers enables the paper's §3.3 allocation variant: every
// write allocates an exact-size buffer instead of reusing the slot's
// buffer. Both modes size memory to the values stored; this one also
// keeps stale views valid indefinitely (retired buffers are reclaimed by
// the garbage collector), at the cost of one allocation per write.
func WithDynamicBuffers() ARCOption {
	return func(o *arc.Options) { o.DynamicBuffers = true }
}

// FreshnessProber is implemented by readers that can report, without
// performing a read, whether their last-returned value is still current.
// ARC and RF support it; for ARC the probe is a single atomic load with
// no RMW instruction.
type FreshnessProber = register.FreshnessProber
