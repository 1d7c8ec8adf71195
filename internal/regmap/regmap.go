// Package regmap composes many ARC (1,N) registers into one addressable,
// sharded, wait-free snapshot map — the "large-scale data sharing" step
// the paper motivates: the register is the primitive, a keyed store of
// registers is the service built from it (registers as the communication
// substrate larger objects are composed from, in Vitányi's framing).
//
// # Structure
//
//   - Every key owns a dedicated ARC (1,N) register holding its current
//     value. Value reads inherit ARC's properties verbatim: wait-free,
//     zero-copy views, zero RMW instructions when the value is unchanged.
//
//   - Keys are partitioned over S shards by an FNV-1a hash. Each shard
//     owns a dynamically growable key directory — an append-only log of
//     add and tombstone entries; a key's position in the slot array is its
//     slot index, stable for the key's lifetime. Delete publishes a
//     tombstone and recycles the slot: a later creation may reuse it with
//     a fresh value register (a new slot generation), so deleted keys
//     never resurrect stale values.
//
//   - Delete/recreate churn accretes dead entries in the log, so the log
//     is compacted in epochs: when an append would cross the directory
//     ceiling (or on an explicit Map.Compact), the writer publishes a
//     fresh log that re-registers every live key at its current slot and
//     generation, under a bumped compaction generation in the header.
//     Readers that observe the bump discard their incremental-decode
//     cursor and rebase onto the new log; prefix-stability holds within
//     each compaction epoch (DESIGN.md §9). The bump doubles as the
//     repair path: a reader shard whose decode latched corrupt retries a
//     full rebase when the directory publishes again, so poisoned shards
//     heal instead of failing forever.
//
//   - The directory itself is published through a directory ARC register
//     (one per shard, §3.3 dynamic-buffer variant, so its value can grow
//     without bound while unchanged publications cost nothing). Adding or
//     deleting a key is one log append plus one directory re-publish by
//     that shard's writer — and directory lookups, key enumeration and
//     change detection on the reader side are all wait-free zero-copy
//     register reads, never mutex acquisitions.
//
// # The fresh-gated Get
//
// Every Reader handle caches, per shard, the decoded directory — a
// (directory epoch, key→slot table, per-key ARC reader) tuple. A Get
// probes the shard's directory register with arc.Reader.Fresh (one atomic
// load, no RMW); only when the directory actually changed does it re-view
// and re-decode — and the decode is incremental: the append-only log is
// prefix-stable, so only the new tail entries are parsed. The key's
// own register is then read through arc.Reader.ViewFresh, whose unchanged
// case is ARC's R1–R2 fast path. A Get of an unchanged key on an
// unchanged directory therefore costs two atomic loads total — zero RMW
// instructions, zero decoding, zero copies — regardless of how many keys
// the map holds, and regardless of deletions elsewhere. A miss on an
// unchanged directory costs one atomic load plus a hash lookup.
//
// # The multi-key snapshot
//
// Reader.Snapshot returns a point-in-time copy of every live key. Each
// shard carries a pair of publish counters (pubStarted, bumped by the
// shard writer immediately before any publication — value write,
// directory append — and pubDone, bumped immediately after). A snapshot
// collects each shard under a validated counter window (started == done
// before the collect, started unchanged after it), then runs a global
// verification pass re-reading every shard's counter; shards that moved
// are re-collected. When a verification pass observes no movement, every
// shard's collected state was simultaneously current at the pass's start
// — a single linearization point for the whole map (see DESIGN.md §7 for
// the argument and for why an unvalidated counter gate is unsound).
// Snapshot executes no RMW instructions and retries only on observed
// publications. WatchAll runs the same collect against a cache it keeps
// across events, re-collecting only the shards that published since.
//
// # Concurrency contract
//
// Each shard is single-writer: Set and Delete may be invoked concurrently
// only for keys living on different shards (ShardOf reports the routing).
// The common deployment is one writer goroutine for the whole map,
// mirroring the paper's (1,N) shape; partition keys by ShardOf to scale
// writes. Readers are one handle per goroutine, as everywhere in this
// module.
//
// The writer-to-reader handoff of a new key needs no locks: the shard's
// slot array is an immutable snapshot behind an atomic pointer, replaced
// (copy-on-write) before the directory register publishes the new entry.
// A reader that observes the new directory through the register's RMW
// chain therefore observes the updated slot array too. Slot reuse adds
// one subtlety: the slot array can run ahead of the directory view a
// reader decodes (the writer stores the array before publishing), so each
// slot carries a generation — the number of add entries that targeted it
// — and a reader that catches the array ahead of its view re-views the
// directory. The retry is sound because a generation mismatch proves the
// intervening tombstone was already fully published (never in flight), so
// the re-view observes it; see DESIGN.md §7.
package regmap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"arcreg/internal/arc"
	"arcreg/internal/notify"
	"arcreg/internal/obs"
	"arcreg/internal/pad"
	"arcreg/internal/register"
	"arcreg/internal/trace"
)

// ErrKeyNotFound is returned by Get for a key no Set has created (or a
// deleted one), and by Delete for a key that does not exist.
var ErrKeyNotFound = errors.New("regmap: key not found")

// ErrDirectoryFull is returned by Set when a shard's live keys alone
// (after compacting away any dead log entries) cannot fit under the
// directory ceiling. It marks genuine capacity exhaustion, not churn:
// churn is absorbed by compaction epochs. Match with errors.Is.
var ErrDirectoryFull = errors.New("regmap: shard directory full")

// ErrShardCorrupt is returned by reads of a shard whose directory decode
// failed a structural or protocol check. The latch is per reader shard
// and heals: the reader retries a full rebase decode when the writer
// publishes again (Map.Compact guarantees a repairable publication).
// Match with errors.Is.
var ErrShardCorrupt = errors.New("regmap: shard directory corrupt")

// DefaultShards is the shard count when Config.Shards is zero.
const DefaultShards = 8

// dirMaxBytes bounds a shard directory log (1 GiB of entry material per
// shard — an administrative ceiling, not a pre-allocation: the directory
// register uses dynamic buffers). The log is append-only, so delete/
// recreate churn consumes directory capacity; the ceiling is what makes
// every directory refresh loop terminate absolutely.
const dirMaxBytes = 1 << 30

// dirCapacity is the enforced log ceiling — a variable only so tests can
// exercise the full-directory paths without allocating a gibibyte.
var dirCapacity = dirMaxBytes

// dirHeaderSize is the fixed directory prefix: 8-byte publication epoch
// + 4-byte entry count + 4-byte compaction generation. Fixed-width (not
// varint) so the entry region's byte offsets never shift as the log
// grows — that is what makes the reader's incremental tail decode sound.
// The epoch is globally monotone (it never resets); the entry count
// restarts at each compaction; the compaction generation (cgen) bumps
// once per compaction and is the reader's rebase signal.
const dirHeaderSize = 16

// Directory log entries are tagged with their target slot:
//
//	add:       uvarint(slot<<1) | uvarint(gen) | uvarint(len(key)) | key bytes
//	tombstone: uvarint(slot<<1|1)
//
// An add either appends a brand-new slot (slot == current slot count) or
// reuses a tombstoned one. The add carries the slot's generation
// explicitly: within one compaction epoch it matches the count of adds
// that targeted the slot, but a compacted log re-registers slots at
// their *current* generations, so readers cannot derive generations by
// counting — they decode them.
const tombstoneFlag = 1

// addEntryMax bounds an add entry's encoded size (three varints plus the
// key bytes) — the writer's capacity pre-check.
func addEntryMax(key string) int { return 3*binary.MaxVarintLen64 + len(key) }

// appendAdd appends one add entry for (slot, gen, key) to buf.
func appendAdd(buf []byte, slot int, gen uint32, key string) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(slot)<<1)
	buf = append(buf, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(gen))
	buf = append(buf, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(len(key)))
	buf = append(buf, tmp[:n]...)
	return append(buf, key...)
}

// Config parametrizes a Map.
type Config struct {
	// Shards is the number of key partitions, rounded up to a power of
	// two (default DefaultShards). More shards mean more write
	// parallelism headroom and smaller directories, at the cost of one
	// directory register (and one per-reader handle) each.
	Shards int
	// MaxReaders is N, the number of concurrently live Reader handles.
	MaxReaders int
	// MaxValueSize bounds values in bytes (default
	// register.DefaultMaxValueSize). It is a bound, not an allocation:
	// per-key registers size their MaxReaders+2 slot buffers to the
	// values they hold (see internal/arc).
	MaxValueSize int
	// DynamicValues selects the §3.3 dynamic-buffer variant for the
	// per-key value registers: each Set allocates an exact-size buffer
	// instead of reusing a slot's buffer. Both modes scale memory with
	// the values stored; this one also keeps stale views valid
	// indefinitely, at one allocation per Set.
	DynamicValues bool
	// Trace enables the always-on flight recorder: one writer ring per
	// shard (value and directory publications record StagePublish and
	// stamp the notify cascade), one ring for the map-level fan's root
	// relay, and a pool of watcher lanes Reader handles borrow. The
	// recording paths stay RMW- and allocation-free (owner-plain rings,
	// see internal/trace); untraced maps skip even the clock read, so
	// the hot paths are bit-identical with Trace off.
	Trace bool
	// TraceRingEvents is the per-ring event capacity when Trace is set
	// (default trace.DefaultRingEvents, rounded up to a power of two).
	TraceRingEvents int
	// TraceLanes bounds the watcher-lane pool when Trace is set
	// (default trace.DefaultLanes); readers beyond it run untraced.
	TraceLanes int
}

// fnv64Offset/fnv64Prime are the FNV-1a 64-bit parameters. The hash is
// inlined (rather than hash/fnv) to keep ShardOf allocation-free on the
// read path; the fuzz tests pin it to the stdlib implementation.
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// Hash is the FNV-1a 64-bit hash of key — the map's shard router,
// exported for tests and for callers that partition writer goroutines.
func Hash(key string) uint64 {
	h := uint64(fnv64Offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnv64Prime
	}
	return h
}

// slots is an immutable snapshot of a shard's per-key registers and their
// generations, in slot order. Replaced copy-on-write by the shard writer
// whenever a slot is added or reused; readers load it atomically after
// viewing the directory and verify the generations against their decoded
// state.
type slots struct {
	regs []*arc.Register
	gens []uint32
}

// shard owns one key partition: the directory register, the snapshot
// publish counters, and the writer-side key table. All non-atomic fields
// are owned by the shard's single writer.
type shard struct {
	dir     *arc.Register         // directory publications (dynamic buffers)
	entries atomic.Pointer[slots] // reader-visible slot array snapshot
	// pubStarted / pubDone bracket every publication on this shard
	// (value write, directory append): the writer bumps pubStarted
	// immediately before and pubDone immediately after. Snapshot's
	// validated collect is built on them (see DESIGN.md §7).
	pubStarted pad.PaddedUint64
	pubDone    pad.PaddedUint64
	// liveKeys is the shard's live key count, maintained by the writer,
	// read by Map.Len.
	liveKeys atomic.Int64
	// notify is the per-shard publication sequencer: the shard writer
	// publishes it after every publication on the shard (value write,
	// key creation, tombstone), and its gate is chained to the map-level
	// watch gate, so whole-map watchers park in one place. Per-key value
	// changes additionally wake the key register's own sequencer (inside
	// arc.Write), which single-key watchers park on — sibling-key
	// traffic does not wake them. All of it is store+load only: the
	// publish paths stay RMW- and allocation-free while nobody is
	// parked.
	notify notify.Sequencer

	// rec is the shard writer's flight-recorder ring (nil = untraced):
	// every value and directory register the shard owns records its
	// StagePublish events here (they share the shard's single writer,
	// so the ring stays single-writer), and stampNow reads the clock
	// only when it is set.
	rec *trace.Ring

	si          int             // shard index (error context)
	index       map[string]int  // writer-side key → slot (live keys only)
	wregs       []*arc.Register // writer-side slot array (uncopied)
	wgens       []uint32        // writer-side slot generations
	wkeys       []string        // writer-side slot → key ("" when dead) — compaction's source of truth
	freeSlots   []int           // tombstoned slots available for reuse
	epoch       uint64          // directory publish count (monotone across compactions)
	cgen        uint32          // compaction generation (bumps per compaction)
	nentries    int             // log entries in the current compaction epoch
	dirBuf      []byte          // directory encoding (prefix-stable within an epoch)
	deletes     uint64          // tombstones published (including compaction-folded deletes)
	creates     uint64          // keys created (including re-creations)
	compactions uint64          // compaction epochs published

	// stats mirrors the plain directory counters above as live cells
	// for Map.Stats. The writer flushes it with flushStats only inside
	// a publication window (after beginPub), so the validated collect
	// in statsSnapshot — same seqlock argument as Snapshot's — either
	// sees a mutually consistent flush or detects the overlap and
	// retries. In particular cgen == compactions in every snapshot the
	// walker accepts, even mid-Compact.
	stats shardStats
}

// shardStats is the shard writer's tier-1 live counter block:
// single-writer cells, pad-bracketed so neighbouring shards' walkers
// and writers do not false-share.
type shardStats struct {
	_           pad.CacheLinePad
	epoch       obs.Cell
	cgen        obs.Cell
	entries     obs.Cell
	dirBytes    obs.Cell
	creates     obs.Cell
	deletes     obs.Cell
	compactions obs.Cell
	_           pad.CacheLinePad
}

// beginPub / endPub bracket one publication for the snapshot gate.
func (sh *shard) beginPub() { sh.pubStarted.Add(1) }
func (sh *shard) endPub()   { sh.pubDone.Add(1) }

// stampNow returns the origin stamp for a publication about to happen
// on this shard: trace.Now when the shard is traced, 0 (unstamped)
// otherwise — so untraced publish paths never read the clock.
func (sh *shard) stampNow() int64 {
	if sh.rec == nil {
		return 0
	}
	return trace.Now()
}

// flushStats publishes the shard's directory counters into the live
// cells. Call only from the shard writer, only inside a publication
// window (between beginPub and endPub): the window is what lets the
// stats walker validate that the seven cells belong to one publication
// instead of tearing across two.
func (sh *shard) flushStats() {
	sh.stats.epoch.Store(sh.epoch)
	sh.stats.cgen.Store(uint64(sh.cgen))
	sh.stats.entries.Store(uint64(sh.nentries))
	sh.stats.dirBytes.Store(uint64(len(sh.dirBuf)))
	sh.stats.creates.Store(sh.creates)
	sh.stats.deletes.Store(sh.deletes)
	sh.stats.compactions.Store(sh.compactions)
}

// Map is a sharded wait-free snapshot map of ARC registers.
type Map struct {
	shards       []*shard
	mask         uint64
	maxReaders   int
	maxValueSize int
	dynamic      bool

	// watchGate aggregates every shard sequencer: any publication
	// anywhere in the map wakes watchers parked here (Reader.WatchAll).
	watchGate notify.Gate

	// watchTrack aggregates the live Watch/WatchAll population's
	// backpressure ledgers into the Stats tree. Watchers attach on
	// entry and detach on return — lifecycle edges, never per-event.
	watchTrack notify.Tracker

	// tracer owns the map's flight-recorder rings (nil when Config.Trace
	// is off — every use degrades to untraced); fanRing is the dedicated
	// ring of the map-level fan's root relay, attached lazily when the
	// first WatchAll session fans the watch gate.
	tracer  *trace.Tracer
	fanRing *trace.Ring

	mu          sync.Mutex
	liveReaders int
}

// New constructs a Map.
func New(cfg Config) (*Map, error) {
	if cfg.MaxReaders <= 0 {
		return nil, fmt.Errorf("regmap: MaxReaders must be positive, got %d", cfg.MaxReaders)
	}
	if cfg.MaxValueSize == 0 {
		cfg.MaxValueSize = register.DefaultMaxValueSize
	}
	if cfg.MaxValueSize < 0 {
		return nil, fmt.Errorf("regmap: MaxValueSize must be positive, got %d", cfg.MaxValueSize)
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("regmap: Shards must be positive, got %d", cfg.Shards)
	}
	nshards := 1
	for nshards < cfg.Shards {
		nshards <<= 1
	}
	m := &Map{
		shards:       make([]*shard, nshards),
		mask:         uint64(nshards - 1),
		maxReaders:   cfg.MaxReaders,
		maxValueSize: cfg.MaxValueSize,
		dynamic:      cfg.DynamicValues,
	}
	if cfg.Trace {
		m.tracer = trace.New(trace.Config{RingEvents: cfg.TraceRingEvents, Lanes: cfg.TraceLanes})
		m.fanRing = m.tracer.Ring("fan-root")
	}
	genesis := make([]byte, dirHeaderSize) // epoch 0, no entries, cgen 0
	for i := range m.shards {
		dir, err := arc.New(register.Config{
			MaxReaders:   cfg.MaxReaders,
			MaxValueSize: dirMaxBytes,
			Initial:      genesis,
		}, arc.Options{DynamicBuffers: true})
		if err != nil {
			return nil, fmt.Errorf("regmap: shard %d directory: %w", i, err)
		}
		sh := &shard{
			dir:    dir,
			si:     i,
			index:  make(map[string]int),
			dirBuf: append([]byte(nil), genesis...),
		}
		sh.entries.Store(&slots{})
		sh.notify.Chain(&m.watchGate)
		if m.tracer != nil {
			// One ring per shard writer; the directory register shares it
			// (same single writer). Key registers join in addKey.
			sh.rec = m.tracer.Ring(fmt.Sprintf("shard%d", i))
			dir.Trace(sh.rec)
		}
		sh.flushStats() // seed the live cells before the shard is shared
		m.shards[i] = sh
	}
	return m, nil
}

// Shards reports the shard count (a power of two).
func (m *Map) Shards() int { return len(m.shards) }

// MaxReaders reports the Reader-handle capacity N.
func (m *Map) MaxReaders() int { return m.maxReaders }

// MaxValueSize reports the per-value byte bound.
func (m *Map) MaxValueSize() int { return m.maxValueSize }

// ShardOf reports which shard key routes to — deterministic across
// processes and Map instances with the same shard count. Writers that
// want parallel Sets partition their keys by this.
func (m *Map) ShardOf(key string) int { return int(Hash(key) & m.mask) }

// Len reports the number of live keys in the map. Safe to call
// concurrently with Sets and Deletes (it sums the shards' atomic live
// counters; no cross-shard atomicity is implied — use Snapshot for
// that).
func (m *Map) Len() int {
	n := 0
	for _, sh := range m.shards {
		n += int(sh.liveKeys.Load())
	}
	return n
}

// Set publishes val under key, creating (or re-creating) the key if
// needed. Single goroutine per shard (see the package concurrency
// contract). The value is copied into a register slot; the caller keeps
// ownership of val.
func (m *Map) Set(key string, val []byte) error {
	if len(val) > m.maxValueSize {
		return fmt.Errorf("%w: %d > %d", register.ErrValueTooLarge, len(val), m.maxValueSize)
	}
	sh := m.shards[m.ShardOf(key)]
	if i, ok := sh.index[key]; ok {
		// Stamp the publication on traced shards: the key register's
		// StagePublish event, the shard notify wake, and every downstream
		// stage share this one span ID (see internal/trace).
		stamp := sh.stampNow()
		sh.beginPub()
		faultValuePublish.Hit()
		err := sh.wregs[i].WriteStamped(val, stamp)
		sh.endPub()
		if err == nil {
			sh.notify.PublishAt(stamp)
		}
		return err
	}
	return m.addKey(sh, key, val)
}

// Delete removes key from the map by publishing a tombstone through the
// shard's directory register; the slot is recycled for a later creation.
// Returns ErrKeyNotFound when the key does not exist. Same single-writer-
// per-shard contract as Set. Readers holding views of the deleted key's
// value keep them (the retired register is never written again); readers
// observe the deletion on their next directory probe, so a concurrent Get
// linearizes before the delete and returns the last value, or after it
// and misses.
func (m *Map) Delete(key string) error {
	sh := m.shards[m.ShardOf(key)]
	slot, ok := sh.index[key]
	if !ok {
		return ErrKeyNotFound
	}
	var tagBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tagBuf[:], uint64(slot)<<1|tombstoneFlag)
	if len(sh.dirBuf)+n > dirCapacity {
		// No room for a tombstone: fold the deletion into a compaction
		// epoch — the fresh log simply omits the key, so Delete succeeds
		// at any fill level and the map can always shrink.
		sh.unbind(key, slot)
		return sh.compact()
	}
	sh.unbind(key, slot)
	faultDeleteRecycle.Hit()

	sh.epoch++
	sh.nentries++
	sh.dirBuf = append(sh.dirBuf, tagBuf[:n]...)
	binary.LittleEndian.PutUint64(sh.dirBuf[0:8], sh.epoch)
	binary.LittleEndian.PutUint32(sh.dirBuf[8:12], uint32(sh.nentries))
	faultDirPrepublish.Hit()
	stamp := sh.stampNow()
	sh.beginPub()
	sh.flushStats()
	faultDirPublish.Hit()
	err := sh.dir.WriteStamped(sh.dirBuf, stamp)
	sh.endPub()
	if err == nil {
		sh.notify.PublishAt(stamp)
	}
	return err
}

// unbind removes key (at slot) from the writer's live state; the
// directory publication (tombstone or compaction) follows separately.
func (sh *shard) unbind(key string, slot int) {
	delete(sh.index, key)
	sh.wkeys[slot] = ""
	sh.freeSlots = append(sh.freeSlots, slot)
	sh.deletes++
	sh.liveKeys.Add(-1)
}

// addKey creates a fresh register for the key (seeded with the first
// value, so the key is never visible without one — and so a re-created
// key can never resurrect its predecessor's value), installs it into a
// free slot (or appends one), publishes the new slot snapshot, and
// appends an add entry to the directory log. The order — register ready,
// slots stored, directory published — is what readers rely on: observing
// the new entry through the register's RMW chain happens-after the slot
// store.
func (m *Map) addKey(sh *shard, key string, val []byte) error {
	initial := val
	if initial == nil {
		initial = []byte{}
	}
	reg, err := arc.New(register.Config{
		MaxReaders:   m.maxReaders,
		MaxValueSize: m.maxValueSize,
		Initial:      initial,
	}, arc.Options{DynamicBuffers: m.dynamic})
	if err != nil {
		return fmt.Errorf("regmap: key %q register: %w", key, err)
	}
	// The key register's writer is the shard writer, so it shares the
	// shard's flight-recorder ring (nil on untraced maps).
	reg.Trace(sh.rec)
	if err := sh.ensureRoom(addEntryMax(key)); err != nil {
		return err
	}

	var slot int
	if n := len(sh.freeSlots); n > 0 {
		slot = sh.freeSlots[n-1]
		sh.freeSlots = sh.freeSlots[:n-1]
		sh.wregs[slot] = reg
		sh.wgens[slot]++
		sh.wkeys[slot] = key
	} else {
		slot = len(sh.wregs)
		sh.wregs = append(sh.wregs, reg)
		sh.wgens = append(sh.wgens, 1)
		sh.wkeys = append(sh.wkeys, key)
	}
	next := &slots{
		regs: append(make([]*arc.Register, 0, len(sh.wregs)), sh.wregs...),
		gens: append(make([]uint32, 0, len(sh.wgens)), sh.wgens...),
	}
	sh.index[key] = slot
	sh.creates++
	sh.liveKeys.Add(1)

	// Append the add entry to the prefix-stable log and re-publish.
	sh.epoch++
	sh.nentries++
	sh.dirBuf = appendAdd(sh.dirBuf, slot, sh.wgens[slot], key)
	binary.LittleEndian.PutUint64(sh.dirBuf[0:8], sh.epoch)
	binary.LittleEndian.PutUint32(sh.dirBuf[8:12], uint32(sh.nentries))
	faultDirPrepublish.Hit()
	stamp := sh.stampNow()
	sh.beginPub()
	sh.flushStats()
	sh.entries.Store(next)
	faultSlotStore.Hit()
	err = sh.dir.WriteStamped(sh.dirBuf, stamp)
	sh.endPub()
	if err == nil {
		sh.notify.PublishAt(stamp)
	}
	return err
}

// ensureRoom guarantees the next append of up to need bytes fits under
// the directory ceiling, compacting first when the log carries dead
// entries (tombstones and their superseded adds). ErrDirectoryFull only
// when even the compacted live set leaves no room — genuine capacity
// exhaustion, not churn.
func (sh *shard) ensureRoom(need int) error {
	if len(sh.dirBuf)+need <= dirCapacity {
		return nil
	}
	if sh.nentries > len(sh.index) {
		if err := sh.compact(); err != nil {
			return err
		}
		if len(sh.dirBuf)+need <= dirCapacity {
			return nil
		}
	}
	return fmt.Errorf("%w: shard %d holds %d live keys in %d bytes (ceiling %d)",
		ErrDirectoryFull, sh.si, len(sh.index), len(sh.dirBuf), dirCapacity)
}

// compact publishes a new compaction epoch: a fresh directory log whose
// entries re-register every live key at its current slot and generation,
// under a bumped cgen. Slot numbering, value registers and generations
// are untouched — only the log representation resets — so reader handles
// parked on live keys survive the epoch (their (slot, gen) bindings
// re-validate against the new log). The publication epoch keeps rising
// across the bump: readers use it to order publications globally.
//
// compact is also the universal repair publication: it is built purely
// from the writer-side tables (index/wkeys/wgens), so after a crash that
// left an append unpublished — or after a corruption was injected behind
// the writer's back — one compact republishes the writer's truth and
// every latched reader rebases onto it.
func (sh *shard) compact() error {
	buf := make([]byte, dirHeaderSize, dirHeaderSize+len(sh.dirBuf)/2)
	count := 0
	for slot, key := range sh.wkeys {
		if key == "" {
			continue
		}
		buf = appendAdd(buf, slot, sh.wgens[slot], key)
		count++
	}
	sh.epoch++
	sh.cgen++
	sh.nentries = count
	sh.dirBuf = buf
	binary.LittleEndian.PutUint64(buf[0:8], sh.epoch)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(count))
	binary.LittleEndian.PutUint32(buf[12:16], sh.cgen)
	sh.compactions++
	// Re-store the slot snapshot from the writer tables: normally a
	// no-op copy, but after a crash that unwound addKey between its
	// state mutation and its publication, the published pointer is
	// stale — re-storing it here is what makes compact the universal
	// crash repair (readers verify decoded generations against it).
	next := &slots{
		regs: append(make([]*arc.Register, 0, len(sh.wregs)), sh.wregs...),
		gens: append(make([]uint32, 0, len(sh.wgens)), sh.wgens...),
	}
	faultCompactBuilt.Hit()
	stamp := sh.stampNow()
	sh.beginPub()
	sh.flushStats()
	sh.entries.Store(next)
	faultCompactPublish.Hit()
	err := sh.dir.WriteStamped(sh.dirBuf, stamp)
	sh.endPub()
	if err == nil {
		sh.notify.PublishAt(stamp)
	}
	return err
}

// Compact publishes a compaction epoch on every shard: directory logs
// shrink to their live sets, and every reader-side corrupt latch in the
// map becomes repairable (readers rebase on their next touch). Writers
// rarely need to call it — appends auto-compact at the ceiling — but it
// is the explicit recovery step after a crash mid-operation and the
// administrative "truncate the logs now" knob.
//
// Compact is a writer-side operation on all shards at once: call it from
// the goroutine that owns the whole map's writes, or use CompactShard
// from partitioned writers.
func (m *Map) Compact() error {
	for si := range m.shards {
		if err := m.CompactShard(si); err != nil {
			return err
		}
	}
	return nil
}

// CompactShard publishes a compaction epoch on one shard, under the same
// single-writer-per-shard contract as Set and Delete.
func (m *Map) CompactShard(si int) error { return m.shards[si].compact() }

// WriteStats aggregates the map's publish-side counters. Collect only at
// quiescence (no Set or Delete in flight), like every stats accessor in
// this module.
func (m *Map) WriteStats() WriteStats {
	var ws WriteStats
	for _, sh := range m.shards {
		ws.Directory.Add(sh.dir.WriteStats())
		ws.Keys += sh.creates
		ws.Deletes += sh.deletes
		ws.Compactions += sh.compactions
		ws.DirBytes += uint64(len(sh.dirBuf))
		// Aggregate live incarnations only: a tombstoned slot keeps its
		// retired register parked until reuse, but its counters leave
		// the aggregate at the Delete (deterministically, as documented).
		for slot, reg := range sh.wregs {
			if sh.wkeys[slot] != "" {
				ws.Value.Add(reg.WriteStats())
			}
		}
	}
	return ws
}

// Stats returns the map's live telemetry as a Stats-tree node: map
// totals, one child per shard, and the aggregated watcher-backpressure
// ledger. Safe from any goroutine at any time, concurrently with Sets,
// Deletes and Compacts — unlike WriteStats it never touches the plain
// writer-side fields, only the shard stat cells flushed inside
// publication windows plus independently atomic gauges.
//
// Per-shard counters are mutually consistent: each shard node comes
// from one validated collect (statsSnapshot), so within it cgen ==
// compactions even while a Compact is publishing. Cross-shard totals
// sum per-shard snapshots taken at slightly different instants — the
// same per-shard consistency contract as Snapshot's value collect.
func (m *Map) Stats() obs.Snapshot {
	sn := obs.Snapshot{Name: "map"}
	var keys, pubs, wakes, epoch, entries, dirBytes, creates, deletes, compactions uint64
	children := make([]obs.Snapshot, 0, len(m.shards)+1)
	for _, sh := range m.shards {
		node := sh.statsSnapshot()
		get := func(name string) uint64 { v, _ := node.Get(name); return v }
		keys += get("live_keys")
		pubs += get("publications")
		wakes += get("wakes")
		epoch += get("dir_epoch")
		entries += get("dir_entries")
		dirBytes += get("dir_bytes")
		creates += get("creates")
		deletes += get("deletes")
		compactions += get("compactions")
		children = append(children, node)
	}
	sn.Put("shards", uint64(len(m.shards)))
	sn.Put("live_keys", keys)
	sn.Put("live_readers", uint64(m.LiveReaders()))
	sn.Put("max_readers", uint64(m.maxReaders))
	sn.Put("publications", pubs)
	sn.Put("wakes", wakes)
	sn.Put("dir_epoch", epoch)
	sn.Put("dir_entries", entries)
	sn.Put("dir_bytes", dirBytes)
	sn.Put("creates", creates)
	sn.Put("deletes", deletes)
	sn.Put("compactions", compactions)
	sn.Children = append(sn.Children, m.watchTrack.Stats())
	if t := m.watchGate.Fanned(); t != nil {
		// The map-level gate's wakeup tree (attached by the first
		// WatchAll session): topology, live relays, cascade counters.
		sn.Children = append(sn.Children, t.Stats())
	}
	if m.tracer != nil {
		sn.Children = append(sn.Children, m.tracer.Stats())
	}
	sn.Children = append(sn.Children, children...)
	return sn
}

// WatchTracker returns the map's watcher-population tracker. Watch and
// WatchAll attach their ledgers automatically; compositions embedding
// the map can attach their own.
func (m *Map) WatchTracker() *notify.Tracker { return &m.watchTrack }

// Tracer returns the map's flight recorder, nil when Config.Trace is
// off. Walk it for span dumps and per-stage latency breakdowns (all
// walker-side: the recording domains stay wait-free).
func (m *Map) Tracer() *trace.Tracer { return m.tracer }

// traceTree attaches a freshly named recorder ring to a wakeup tree's
// root relay, once per tree: a tree's root relay is a single-writer
// domain, so each traced tree needs its own ring. Attach-once is
// serialized under m.mu (watch-session wiring, never per-event); an
// untraced map is a no-op. Rings accumulate per watched key
// incarnation — bounded by the keys actually watched on a traced map.
func (m *Map) traceTree(t *notify.Tree, name string) {
	if m.tracer == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !t.Traced() {
		t.Trace(m.tracer.Ring(name))
	}
}

// FanRelays sums the running relay goroutines across every wakeup tree
// attached anywhere in the map — value registers, shard directories,
// the map-level gate. Quiescent collection (like ReadStats): call with
// no concurrent shard writer, since it walks the writer-side slot
// arrays unlocked. Leak tests use it to pin that the sum drains to
// zero once every watch session has ended.
func (m *Map) FanRelays() int64 {
	var n int64
	for _, sh := range m.shards {
		if t := sh.dir.Notifier().Gate().Fanned(); t != nil {
			n += t.Relays()
		}
		for _, reg := range sh.wregs {
			if reg == nil {
				continue
			}
			if t := reg.Notifier().Gate().Fanned(); t != nil {
				n += t.Relays()
			}
		}
	}
	if t := m.watchGate.Fanned(); t != nil {
		n += t.Relays()
	}
	return n
}

// statsSnapshot is one shard's validated live collect: load the
// publish window counters, require quiescence (started == done), read
// the stat cells, and accept only if no publication began meanwhile —
// the seqlock discipline Snapshot already uses for values, applied to
// counters. Because the writer flushes the cells exclusively inside
// windows, an accepted read is a point-in-time copy of one flush.
func (sh *shard) statsSnapshot() obs.Snapshot {
	for {
		s1 := sh.pubStarted.Load()
		if s1 != sh.pubDone.Load() {
			runtime.Gosched() // publication in flight: wait it out
			continue
		}
		node := obs.Snapshot{Name: fmt.Sprintf("shard%d", sh.si)}
		node.Put("dir_epoch", sh.stats.epoch.Load())
		node.Put("cgen", sh.stats.cgen.Load())
		node.Put("dir_entries", sh.stats.entries.Load())
		node.Put("dir_bytes", sh.stats.dirBytes.Load())
		node.Put("creates", sh.stats.creates.Load())
		node.Put("deletes", sh.stats.deletes.Load())
		node.Put("compactions", sh.stats.compactions.Load())
		// Independently atomic gauges: consistent with themselves, not
		// window-validated (live_keys moves just outside the window).
		node.Put("live_keys", uint64(sh.liveKeys.Load()))
		node.Put("publications", sh.notify.Epoch())
		node.Put("wakes", sh.notify.Wakes())
		if sh.pubStarted.Load() == s1 {
			return node
		}
		// A publication overlapped the cell reads: the node may mix two
		// flushes — discard and retry.
	}
}

// WriteStats counts the work the map's writer side performed.
type WriteStats struct {
	// Value aggregates the per-key value registers' write counters
	// (live incarnations only; registers retired by Delete drop out).
	Value register.WriteStats
	// Directory aggregates the shard directory registers' write
	// counters; Directory.Ops is the number of directory publications.
	Directory register.WriteStats
	// Keys is the number of keys created, including re-creations of
	// deleted keys.
	Keys uint64
	// Deletes is the number of keys deleted (tombstones published, plus
	// deletions folded directly into a compaction at the ceiling).
	Deletes uint64
	// Compactions is the number of compaction epochs published
	// (automatic and explicit).
	Compactions uint64
	// DirBytes is the current total directory log size across shards —
	// the bounded-memory observable: under churn it saws between the
	// live-set size and the ceiling instead of growing without bound.
	DirBytes uint64
}

// ReadStats counts the work a Reader handle performed.
type ReadStats struct {
	// ReadStats aggregates over the handle's component registers: Ops
	// counts Gets (hits and misses), FastPath counts Gets served with
	// zero RMW instructions (unchanged directory and unchanged or absent
	// key), RMW sums the RMW instructions the directory and per-key
	// handles executed.
	register.ReadStats
	// Misses counts Gets of absent keys.
	Misses uint64
	// DirRefreshes counts directory re-decodes (a changed directory
	// observed); the incremental decode parses only the tail entries.
	DirRefreshes uint64
	// Snapshots counts completed validated collects — Snapshot calls
	// and WatchAll wakes; SnapshotRetries counts shard re-collects
	// forced by concurrently observed publications (zero at steady
	// state).
	Snapshots       uint64
	SnapshotRetries uint64
	// Repairs counts corrupt latches this handle cleared by rebasing
	// onto a later publication (see ErrShardCorrupt).
	Repairs uint64
}

// readerShard is a Reader's per-shard cache: the directory reader handle
// plus the decoded (epoch, key→slot table, per-key handle) state.
type readerShard struct {
	dirRd *arc.Reader
	// table maps live keys to slots; keys, gens, live mirror the decoded
	// log per slot (key bound to the slot, its generation — the count of
	// add entries that targeted it — and whether the binding is live).
	// regs is the slot snapshot the decode verified; handles are the
	// lazily created per-key reader handles, nil until first Get.
	table   map[string]int
	keys    []string
	gens    []uint32
	live    []bool
	regs    []*arc.Register
	handles []*arc.Reader
	// retired holds handles whose slot re-registered at a different
	// generation (a recycle this handle observed) — the old incarnation
	// is gone for good. They are closed at Reader.Close, not eagerly:
	// the owner may still hold views obtained through them, and the
	// registers they pin are never written again. A handle displaced by
	// a tombstone *alone* stays parked at its (dead) slot instead: it
	// still pins exactly incarnation gens[slot], so if a compaction
	// rebase re-registers the slot at that same generation the handle is
	// picked back up with zero RMW — and the slot's next true recycle
	// displaces it for real.
	retired []*arc.Reader
	// displaced stages handles pulled off their slots mid-decode: the
	// decode may yet fail (and a later rebase may prove the displacement
	// was poisoned), so the handle is not retired until a decode commits.
	// On commit, a staged handle whose slot still carries its generation
	// (with no replacement handle) is reinstated; the rest move to
	// retired. The staging is what keeps repair from leaking handle
	// capacity: each value register has exactly MaxReaders handles, so a
	// reader must never re-acquire a handle for an incarnation it still
	// holds one for.
	displaced []displacedHandle
	// epoch is the decoded publication epoch — a monotonicity guard: a
	// later publication carries a strictly larger epoch, so a decode
	// observing a smaller one (without a rebase) means the protocol
	// broke. cgen is the decoded compaction generation: a publication
	// with a different cgen makes the reader rebase — drop every binding
	// and the incremental frontier, then decode the fresh log from its
	// start. decoded/tailOff track the incremental decode frontier
	// (entries parsed, byte offset of the next one — valid across
	// publications because the log is prefix-stable within a cgen).
	epoch   uint64
	cgen    uint32
	decoded int
	tailOff int
	// corrupt latches a failed decode: the directory handle already
	// holds the broken publication (so freshness probes would pass), and
	// the decode may have half-applied the tail — serving that state
	// silently would be worse than failing, so operations on the shard
	// return the original error until the latch heals: when the
	// directory publishes again, the reader retries with a full rebase
	// decode (all poisoned incremental state discarded), and on success
	// the latch clears (ReadStats.Repairs counts these).
	corrupt error
}

// displacedHandle is one staged handle displacement: h was this reader's
// handle for incarnation gen of slot when a decode replaced the slot's
// generation. See readerShard.displaced.
type displacedHandle struct {
	slot int
	gen  uint32
	h    *arc.Reader
}

// Reader is a per-goroutine read endpoint over the whole map. One handle
// per goroutine; at most MaxReaders live at once.
type Reader struct {
	m      *Map
	shards []readerShard
	closed bool

	// lane is the handle's borrowed flight-recorder ring (nil on
	// untraced maps or when the lane pool is exhausted); laneFree
	// returns it at Close. watchWS points at the ledger of the watch
	// iteration currently running on this handle, so downstream
	// single-writer stages (the HTTP layer's SSE flush) can read
	// LastWake from the owning goroutine.
	lane     *trace.Ring
	laneFree func()
	watchWS  *notify.WatchStats

	ops         uint64
	fastPath    uint64
	misses      uint64
	refreshes   uint64
	snapshots   uint64
	snapRetries uint64
	repairs     uint64
	// collects counts validated collects started on the handle (Snapshot
	// and WatchAll wakes); with ops, it tells a WatchAll session whether
	// anything else advanced its cached handles between events.
	collects uint64
}

// NewReader allocates a reader handle (one directory handle per shard;
// per-key handles are created lazily on first Get of each key).
func (m *Map) NewReader() (*Reader, error) {
	m.mu.Lock()
	if m.liveReaders >= m.maxReaders {
		m.mu.Unlock()
		return nil, register.ErrTooManyReaders
	}
	m.liveReaders++
	m.mu.Unlock()
	r := &Reader{m: m, shards: make([]readerShard, len(m.shards))}
	r.lane, r.laneFree = m.tracer.AcquireLane()
	for i, sh := range m.shards {
		h, err := sh.dir.NewReaderHandle()
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("regmap: shard %d directory handle: %w", i, err)
		}
		r.shards[i].dirRd = h
		r.shards[i].table = make(map[string]int)
	}
	return r, nil
}

// rebase discards the incremental-decode cursor for a new compaction
// epoch (or a repair): every binding is dropped — the fresh log's
// entries re-register the live ones — and the frontier resets to the
// log's start. Handles stay parked at their slots: a binding that
// re-registers with an unchanged generation picks its handle back up
// for free, one that re-registers with a new generation displaces it
// through the normal staging path.
func (rs *readerShard) rebase(cgen uint32) {
	for slot := range rs.live {
		rs.live[slot] = false
	}
	clear(rs.table)
	rs.cgen = cgen
	rs.decoded = 0
	rs.tailOff = dirHeaderSize
}

// refresh re-views and decodes shard si's directory log. Called when the
// directory register reports a change, on first touch, and to retry a
// corrupt latch after a new publication. The decode is incremental
// within a compaction epoch (only the tail entries parse); a publication
// carrying a different cgen — and any repair attempt — triggers a
// rebase, after which the fresh log decodes from its start.
//
// The apply loop may run more than once: if the slot snapshot is
// observed ahead of the viewed directory (a slot reuse raced in), the
// directory is re-viewed — sound because the snapshot can only run
// ahead of fully published recycles, so the re-view must decode at
// least the recycle's already-published entries. A re-view that decodes
// nothing new while the mismatch persists therefore proves the mismatch
// is not a race, and the shard latches corrupt instead of spinning on a
// log that can never verify.
func (r *Reader) refresh(si int) error {
	rs := &r.shards[si]
	repairing := false
	if rs.corrupt != nil {
		// The latch heals only through a later publication; the handle
		// still holds the poisoned one, so freshness means there is
		// nothing new to rebase onto yet.
		if rs.dirRd.Fresh() {
			return rs.corrupt
		}
		repairing = true
	}
	// fail latches a protocol/decode error (see readerShard.corrupt).
	fail := func(err error) error {
		rs.corrupt = err
		return err
	}
	rebased := false
	for {
		v, err := rs.dirRd.View()
		if err != nil {
			return err
		}
		if len(v) < dirHeaderSize {
			return fail(fmt.Errorf("%w: shard %d shorter than header (%d bytes)", ErrShardCorrupt, si, len(v)))
		}
		epoch := binary.LittleEndian.Uint64(v[0:8])
		count := int(binary.LittleEndian.Uint32(v[8:12]))
		cgen := binary.LittleEndian.Uint32(v[12:16])
		progressed := false
		if cgen != rs.cgen || (repairing && !rebased) {
			// A compaction epoch — or a repair, which re-decodes from
			// scratch unconditionally because the incremental state may
			// be poisoned. The rebase also re-baselines epoch and count:
			// monotonicity is a per-epoch invariant (DESIGN.md §9), and
			// insisting on it across a repair would leave a shard whose
			// reader once accepted garbage unrecoverable.
			rs.rebase(cgen)
			rebased, progressed = true, true
		} else if !rebased && (epoch < rs.epoch || count < rs.decoded) {
			// Within one compaction epoch ARC never serves an older
			// publication to the same handle, so a regressed epoch or
			// entry count means either the directory protocol broke or —
			// indistinguishably from this side — the reader once accepted
			// a plausible-garbage publication that poisoned its
			// baselines. Latching here could be permanent (the broken
			// baseline would condemn every future publication), so
			// re-decode the current publication from scratch instead: a
			// genuine log re-verifies fully against the slot array and
			// the reader heals; garbage fails the decode and latches
			// through the normal corrupt path. Counted as a repair.
			rs.rebase(cgen)
			rebased, progressed, repairing = true, true, true
		}
		// Load the slot snapshot after viewing the directory: the writer
		// stored it before publishing, so it covers every published add —
		// which also bounds every genuine entry's slot index.
		el := r.m.shards[si].entries.Load()
		off := rs.tailOff
		if rs.decoded == 0 {
			off = dirHeaderSize
		}
		if count > rs.decoded {
			progressed = true
		}
		for i := rs.decoded; i < count; i++ {
			tag, n := binary.Uvarint(v[off:])
			if n <= 0 || tag>>1 > math.MaxInt32 {
				return fail(fmt.Errorf("%w: shard %d entry %d corrupt at offset %d", ErrShardCorrupt, si, i, off))
			}
			off += n
			slot := int(tag >> 1)
			if slot >= len(el.regs) {
				// The slot array is stored before any add naming the slot
				// publishes, and el was loaded after viewing v — a genuine
				// log can never name a slot el lacks.
				return fail(fmt.Errorf("%w: shard %d entry %d names slot %d beyond the slot array (%d)",
					ErrShardCorrupt, si, i, slot, len(el.regs)))
			}
			if tag&tombstoneFlag != 0 {
				if slot >= len(rs.keys) || !rs.live[slot] {
					return fail(fmt.Errorf("%w: shard %d entry %d tombstones dead slot %d", ErrShardCorrupt, si, i, slot))
				}
				delete(rs.table, rs.keys[slot])
				rs.live[slot] = false
				// The handle (if any) stays parked at the dead slot: it
				// still pins exactly incarnation gens[slot], so a rebase
				// that re-registers the slot at that generation reuses it,
				// and a true recycle displaces it below.
				continue
			}
			gen64, n := binary.Uvarint(v[off:])
			if n <= 0 || gen64 == 0 || gen64 > math.MaxUint32 {
				return fail(fmt.Errorf("%w: shard %d entry %d has invalid generation", ErrShardCorrupt, si, i))
			}
			off += n
			gen := uint32(gen64)
			klen, n := binary.Uvarint(v[off:])
			// Compare in uint64 space: a klen that would overflow int must
			// not slip past the bound check.
			if n <= 0 || klen > uint64(len(v)-(off+n)) {
				return fail(fmt.Errorf("%w: shard %d entry %d corrupt at offset %d", ErrShardCorrupt, si, i, off))
			}
			off += n
			key := string(v[off : off+int(klen)])
			off += int(klen)
			// Extend the per-slot arrays up to the named slot: a compacted
			// log registers only live slots, so its slot indices may be
			// sparse (bounded by the el check above).
			for slot >= len(rs.keys) {
				rs.keys = append(rs.keys, "")
				rs.gens = append(rs.gens, 0)
				rs.live = append(rs.live, false)
				rs.handles = append(rs.handles, nil)
			}
			if rs.live[slot] {
				return fail(fmt.Errorf("%w: shard %d entry %d adds occupied slot %d", ErrShardCorrupt, si, i, slot))
			}
			if h := rs.handles[slot]; h != nil && rs.gens[slot] != gen {
				// The slot re-registers as a different incarnation while
				// this reader still holds the old one's handle. Stage the
				// displacement instead of retiring: if this decode fails
				// and a repair later proves the slot still carries the
				// staged generation, the handle is reinstated — never
				// re-acquired (registers hold exactly MaxReaders handles).
				rs.displaced = append(rs.displaced, displacedHandle{slot: slot, gen: rs.gens[slot], h: h})
				rs.handles[slot] = nil
			}
			rs.keys[slot] = key
			rs.gens[slot] = gen
			rs.live[slot] = true
			if _, dup := rs.table[key]; dup {
				return fail(fmt.Errorf("%w: shard %d entry %d re-adds live key %q", ErrShardCorrupt, si, i, key))
			}
			rs.table[key] = slot
		}
		rs.decoded = count
		rs.tailOff = off
		rs.epoch = epoch
		// Verify the snapshot matches the decoded state generation by
		// generation. The snapshot is stored before its add publishes, so
		// it can be ahead of the view (never behind it); ahead means a
		// reuse raced in and el.regs would hand a live binding the wrong
		// incarnation's register — re-view, which must observe the reuse's
		// already-published entries (see the progress rule above).
		ok := true
		for slot, g := range rs.gens {
			if !rs.live[slot] {
				continue
			}
			if slot >= len(el.gens) || el.gens[slot] < g {
				return fail(fmt.Errorf("%w: shard %d slot snapshot behind directory (slot %d gen %d)", ErrShardCorrupt, si, slot, g))
			}
			if el.gens[slot] != g {
				ok = false
				break
			}
		}
		if !ok {
			if !progressed {
				return fail(fmt.Errorf("%w: shard %d slot array ahead of a stationary directory", ErrShardCorrupt, si))
			}
			runtime.Gosched()
			continue
		}
		rs.regs = el.regs
		// Commit the staged displacements: a handle whose slot still
		// carries its generation (and grew no replacement) was displaced
		// by a decode that never committed — reinstate it; the rest pin
		// incarnations that are truly gone.
		for _, d := range rs.displaced {
			if rs.gens[d.slot] == d.gen && rs.handles[d.slot] == nil {
				rs.handles[d.slot] = d.h
			} else {
				rs.retired = append(rs.retired, d.h)
			}
		}
		rs.displaced = rs.displaced[:0]
		if repairing {
			rs.corrupt = nil
			r.repairs++
		}
		r.refreshes++
		return nil
	}
}

// Get returns a zero-copy view of key's freshest value, or ErrKeyNotFound.
// The view is valid until this handle's next Get/GetCopy/Snapshot of the
// same key or Close; Gets of other keys do not invalidate it, and neither
// does the key's deletion (the retired register is never written again).
// When neither the shard directory nor the key changed since the handle's
// last Get of it, the cost is two atomic loads — zero RMW instructions,
// zero decoding.
func (r *Reader) Get(key string) ([]byte, error) {
	v, _, err := r.GetFresh(key)
	return v, err
}

// GetFresh is Get plus a change report, the map-level counterpart of
// register.FreshViewer: changed is false exactly when the returned view
// is the same publication of the same key incarnation the handle's
// previous Get/GetFresh of key returned — so pollers skip decoding on
// directory churn that did not touch their key. The first read of a key
// (and of every re-created incarnation) reports changed == true.
func (r *Reader) GetFresh(key string) (v []byte, changed bool, err error) {
	if r.closed {
		return nil, false, register.ErrReaderClosed
	}
	si := r.m.ShardOf(key)
	rs := &r.shards[si]
	r.ops++
	// One extra nil check on the hot path, no RMW: a corrupt shard
	// routes through refresh, which returns the latch — or repairs it,
	// if the directory has published something new to rebase onto.
	dirFresh := rs.corrupt == nil && rs.dirRd.Fresh()
	if !dirFresh {
		if err := r.refresh(si); err != nil {
			return nil, false, err
		}
	}
	i, ok := rs.table[key]
	if !ok {
		r.misses++
		if dirFresh {
			r.fastPath++ // one load, no RMW: the directory probe
		}
		return nil, false, ErrKeyNotFound
	}
	h := rs.handles[i]
	if h == nil {
		// First read of this incarnation through this handle: a change
		// by definition (tombstone processing nils replaced handles).
		h, err = rs.regs[i].NewReaderHandle()
		if err != nil {
			return nil, false, fmt.Errorf("regmap: key %q handle: %w", key, err)
		}
		rs.handles[i] = h
		changed = true
	}
	v, vchanged, err := h.ViewFresh()
	if err != nil {
		return nil, false, err
	}
	if dirFresh && !vchanged {
		r.fastPath++ // two loads, no RMW: the fully gated hot path
	}
	return v, changed || vchanged, nil
}

// GetCopy copies key's freshest value into dst and returns its length
// (register.ErrBufferTooSmall with the required length if dst cannot
// hold it).
func (r *Reader) GetCopy(key string, dst []byte) (int, error) {
	v, err := r.Get(key)
	if err != nil {
		return 0, err
	}
	if len(dst) < len(v) {
		return len(v), register.ErrBufferTooSmall
	}
	return copy(dst, v), nil
}

// Fresh reports whether the handle's last Get of key would return the
// same publication again — the map-level freshness probe: true only when
// the shard directory is unchanged, the key is known, and its register
// still holds the handle's slot. A key this handle never Get was not
// read, so it reports false (matching register.FreshnessProber).
func (r *Reader) Fresh(key string) bool {
	if r.closed {
		return false
	}
	rs := &r.shards[r.m.ShardOf(key)]
	if rs.corrupt != nil || !rs.dirRd.Fresh() {
		return false
	}
	i, ok := rs.table[key]
	if !ok {
		return false
	}
	h := rs.handles[i]
	return h != nil && h.Fresh()
}

// Keys returns the map's live keys (shard by shard, slot order within a
// shard; no cross-shard snapshot is implied — each shard's listing is
// individually atomic; use Snapshot for a map-wide cut). The slice is
// the caller's.
func (r *Reader) Keys() ([]string, error) {
	if r.closed {
		return nil, register.ErrReaderClosed
	}
	n := 0
	for si := range r.shards {
		rs := &r.shards[si]
		if rs.corrupt != nil || !rs.dirRd.Fresh() {
			if err := r.refresh(si); err != nil {
				return nil, err
			}
		}
		n += len(rs.table)
	}
	out := make([]string, 0, n)
	for si := range r.shards {
		rs := &r.shards[si]
		for slot, key := range rs.keys {
			if rs.live[slot] {
				out = append(out, key)
			}
		}
	}
	return out, nil
}

// Len reports the number of live keys visible to this handle (refreshing
// each shard's directory view first).
func (r *Reader) Len() (int, error) {
	if r.closed {
		return 0, register.ErrReaderClosed
	}
	n := 0
	for si := range r.shards {
		rs := &r.shards[si]
		if rs.corrupt != nil || !rs.dirRd.Fresh() {
			if err := r.refresh(si); err != nil {
				return 0, err
			}
		}
		n += len(rs.table)
	}
	return n, nil
}

// Snapshot returns a point-in-time copy of every live key and its value
// — atomic across all keys and shards: there is an instant during the
// call at which the map's state was exactly the returned one (the
// linearization argument is in DESIGN.md §7). Values are copies, owned
// by the caller; the map they live in is freshly allocated.
//
// Snapshot reads through the handle's cached per-key registers, so it
// counts as a Get of every live key: views previously returned by Get
// may be invalidated. It executes no RMW instructions; at steady state
// (no concurrent publications) every per-key read is ARC's one-load
// fast path and the collect completes in one pass. A shard is
// re-collected only when its publish counter is observed to move, so
// retries are bounded by the publications that actually race the call.
func (r *Reader) Snapshot() (map[string][]byte, error) {
	c := newCollectCache(len(r.m.shards))
	if err := r.collect(c); err != nil {
		return nil, err
	}
	total := 0
	for si := range c.shards {
		total += len(c.shards[si].vals)
	}
	out := make(map[string][]byte, total)
	for si := range c.shards {
		for k, cv := range c.shards[si].vals {
			out[k] = cv.v
		}
	}
	return out, nil
}

// collectCache is the state one validated whole-map collect runs
// against: per shard, the values its live keys held at the shard's last
// certified collect. Snapshot collects into an empty cache and returns
// it; a WatchAll session keeps one across wakes, so each wake
// re-collects only the shards that published since and copies only the
// values that changed (DESIGN.md §7.2, §8.4).
type collectCache struct {
	shards  []shardCache
	pending []int
	// prior, when non-nil, records each key the cache changed since the
	// last delivery — created, rewritten with different bytes, deleted —
	// with its state at that delivery (captured on the key's first change
	// after it). WatchAll derives each delta from it; Snapshot leaves it
	// nil.
	prior map[string]priorVal
}

// shardCache is one shard's part of a collectCache.
type shardCache struct {
	// vals maps every key live at the shard's last collect to its value
	// and the handle it was read through.
	vals map[string]cachedVal
	// at is the pubStarted value that certified the last collect; valid
	// reports that one happened. While pubStarted still equals at, no
	// publication has begun on the shard since, so vals is still its
	// exact state.
	at    uint64
	valid bool
	// recheck makes the next collect byte-compare every key instead of
	// trusting ViewFresh: another operation on the Reader advanced the
	// cached handles past the values in vals (see WatchAll).
	recheck bool
}

// cachedVal is one cached key: the bytes last copied out of its
// register and the handle that copy was read through. While the key
// still reads through h and h's ViewFresh reports no change, v is
// current.
type cachedVal struct {
	h *arc.Reader
	v []byte
}

// priorVal is a key's state at the last delivery: its bytes, whether it
// was live, and the shard it lives on.
type priorVal struct {
	v    []byte
	live bool
	si   int
}

func newCollectCache(shards int) *collectCache {
	return &collectCache{shards: make([]shardCache, shards)}
}

// note records key's state at the last delivery before the collect
// changes it (first change only).
func (c *collectCache) note(si int, key string, old cachedVal, live bool) {
	if c.prior == nil {
		return
	}
	if _, ok := c.prior[key]; !ok {
		c.prior[key] = priorVal{v: old.v, live: live, si: si}
	}
}

// delta reports the difference between the state at the last delivery
// and the cache — the keys whose bytes differ and the keys that
// disappeared — and makes the cache the new delivered state. Byte-
// identical rewrites and changes reverted before delivery drop out.
func (c *collectCache) delta() Delta {
	d := Delta{Values: make(map[string][]byte, len(c.prior))}
	for key, p := range c.prior {
		cv, live := c.shards[p.si].vals[key]
		switch {
		case live && (!p.live || !bytes.Equal(p.v, cv.v)):
			d.Values[key] = cv.v
		case !live && p.live:
			d.Deleted = append(d.Deleted, key)
		}
	}
	sort.Strings(d.Deleted)
	c.prior = make(map[string]priorVal)
	return d
}

// collect runs one validated whole-map collect into c. Shards whose
// pubStarted still equals their cached certification are not touched;
// the others are re-collected under a validated counter window
// (collectShard). A global verification pass then re-reads every shard's
// counter — cached shards included — and re-collects those that moved.
// A pass with no movement certifies every shard's cached part as current
// at the pass's start: one linearization point for the whole map. Counts
// once in ReadStats.Snapshots.
func (r *Reader) collect(c *collectCache) error {
	if r.closed {
		return register.ErrReaderClosed
	}
	r.collects++
	c.pending = c.pending[:0]
	for si, sh := range r.m.shards {
		if sc := &c.shards[si]; !sc.valid || sh.pubStarted.Load() != sc.at {
			c.pending = append(c.pending, si)
		}
	}
	for len(c.pending) > 0 {
		for _, si := range c.pending {
			if err := r.collectShard(c, si); err != nil {
				return err
			}
		}
		c.pending = c.pending[:0]
		for si, sh := range r.m.shards {
			if sh.pubStarted.Load() != c.shards[si].at {
				c.pending = append(c.pending, si)
				r.snapRetries++
			}
		}
	}
	r.snapshots++
	return nil
}

// collectShard brings shard si's cache up to date under a validated
// counter window (started == done before, started unchanged after),
// certifying it as the shard's exact state at the window's opening. A
// key is copied only when it reads through a new handle or its handle's
// ViewFresh reports a new publication, and then only if its bytes
// differ from the cached ones; cached keys gone from the directory are
// dropped. Retries consume observed publications; like a seqlock
// reader, the collect waits out a publish caught in flight on this
// shard (the read path proper never does).
func (r *Reader) collectShard(c *collectCache, si int) error {
	sh := r.m.shards[si]
	rs := &r.shards[si]
	sc := &c.shards[si]
	for {
		started := sh.pubStarted.Load()
		if started != sh.pubDone.Load() {
			r.snapRetries++
			runtime.Gosched()
			continue
		}
		if rs.corrupt != nil || !rs.dirRd.Fresh() {
			if err := r.refresh(si); err != nil {
				return err
			}
		}
		if sc.vals == nil {
			sc.vals = make(map[string]cachedVal, len(rs.table))
		}
		for key, slot := range rs.table {
			h := rs.handles[slot]
			if h == nil {
				var err error
				h, err = rs.regs[slot].NewReaderHandle()
				if err != nil {
					return fmt.Errorf("regmap: key %q handle: %w", key, err)
				}
				rs.handles[slot] = h
			}
			v, changed, err := h.ViewFresh()
			if err != nil {
				return err
			}
			old, ok := sc.vals[key]
			if ok && old.h == h && !changed && !sc.recheck {
				continue
			}
			if ok && bytes.Equal(old.v, v) {
				old.h = h
				sc.vals[key] = old
				continue
			}
			c.note(si, key, old, ok)
			sc.vals[key] = cachedVal{h: h, v: append([]byte(nil), v...)}
		}
		// Every live key is cached now, so a surplus is deletions.
		if len(sc.vals) > len(rs.table) {
			for key, old := range sc.vals {
				if _, live := rs.table[key]; !live {
					c.note(si, key, old, true)
					delete(sc.vals, key)
				}
			}
		}
		if sh.pubStarted.Load() == started {
			sc.at, sc.valid, sc.recheck = started, true, false
			return nil
		}
		r.snapRetries++
	}
}

// Stats reports the handle's read counters. Collect after the owning
// goroutine has quiesced.
func (r *Reader) Stats() ReadStats {
	st := ReadStats{
		ReadStats:       register.ReadStats{Ops: r.ops, FastPath: r.fastPath},
		Misses:          r.misses,
		DirRefreshes:    r.refreshes,
		Snapshots:       r.snapshots,
		SnapshotRetries: r.snapRetries,
		Repairs:         r.repairs,
	}
	for si := range r.shards {
		rs := &r.shards[si]
		if rs.dirRd != nil {
			st.RMW += rs.dirRd.ReadStats().RMW
		}
		for _, h := range rs.handles {
			if h != nil {
				st.RMW += h.ReadStats().RMW
			}
		}
		for _, h := range rs.retired {
			st.RMW += h.ReadStats().RMW
		}
		for _, d := range rs.displaced {
			st.RMW += d.h.ReadStats().RMW
		}
	}
	return st
}

// Close releases the handle: every per-key handle (live and retired) and
// directory handle is returned to its register, and the map-level
// capacity is freed.
func (r *Reader) Close() error {
	if r.closed {
		return register.ErrReaderClosed
	}
	r.closed = true
	for si := range r.shards {
		rs := &r.shards[si]
		if rs.dirRd != nil {
			rs.dirRd.Close()
		}
		for _, h := range rs.handles {
			if h != nil {
				h.Close()
			}
		}
		for _, h := range rs.retired {
			h.Close()
		}
		for _, d := range rs.displaced {
			d.h.Close()
		}
	}
	if r.laneFree != nil {
		r.laneFree()
	}
	r.m.mu.Lock()
	r.m.liveReaders--
	r.m.mu.Unlock()
	return nil
}

// TraceRing returns the handle's flight-recorder lane, nil when the map
// is untraced or the lane pool was exhausted at NewReader. Owner
// goroutine only — downstream single-writer stages (the HTTP layer's
// SSE flush) record into it.
func (r *Reader) TraceRing() *trace.Ring { return r.lane }

// LastWake returns the origin publish stamp of the most recent waking
// park of the watch iteration running on this handle, 0 when none is
// running or it has not been woken by a stamped wake. Owner goroutine
// only — it joins downstream stages to the in-flight span.
func (r *Reader) LastWake() int64 {
	if r.watchWS == nil {
		return 0
	}
	return r.watchWS.LastWake()
}

// LiveReaders reports the number of open Reader handles.
func (m *Map) LiveReaders() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liveReaders
}
