// Package membuf supplies the buffer substrate shared by all register
// implementations: cache-line-aligned buffer allocation and a versioned
// payload codec. The paper pre-allocates all N+2 slot buffers with mmap;
// the baselines here allocate theirs once at register construction, while
// ARC carves value-sized stripes from one aligned slab and grows a slot
// into its own aligned buffer on demand.
//
// The codec is the workhorse of the correctness harness. Every test write
// encodes a monotonically increasing version into the payload, redundantly
// (head marker, tail marker, and a deterministic body fill derived from the
// version). A reader that observes a *torn* value — bytes from two
// different writes — cannot produce a payload that verifies, so Verify
// doubles as an executable test of the paper's Lemma 4.2 ("no reader reads
// a slot being written").
package membuf

import (
	"encoding/binary"
	"errors"
	"fmt"

	"arcreg/internal/pad"
)

// Alignment is the byte alignment of buffers returned by Aligned. One
// cache line keeps slot buffers from false-sharing with their neighbours'
// tails.
const Alignment = pad.CacheLineSize

// Aligned returns a byte slice of the given length whose first element is
// aligned to Alignment bytes. The slice does not share its backing array
// cache lines with any other allocation made through this function.
func Aligned(size int) []byte {
	if size < 0 {
		panic("membuf: negative buffer size")
	}
	raw := make([]byte, size+Alignment)
	off := 0
	if rem := addressOf(raw) % Alignment; rem != 0 {
		off = Alignment - int(rem)
	}
	return raw[off : off+size : off+size]
}

// AlignedWords returns a uint64 slice of the given word count, cache-line
// aligned. Peterson's algorithm models its buffers as arrays of single-word
// atomic registers; this is their storage.
func AlignedWords(words int) []uint64 {
	if words < 0 {
		panic("membuf: negative word count")
	}
	raw := make([]uint64, words+Alignment/8)
	off := 0
	if rem := wordAddressOf(raw) % Alignment; rem != 0 {
		off = (Alignment - int(rem)) / 8
	}
	return raw[off : off+words : off+words]
}

// Matrix allocates n independent aligned buffers of size bytes each —
// the register slot arrays.
func Matrix(n, size int) [][]byte {
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = Aligned(size)
	}
	return bufs
}

// WordMatrix allocates n independent aligned word buffers.
func WordMatrix(n, words int) [][]uint64 {
	bufs := make([][]uint64, n)
	for i := range bufs {
		bufs[i] = AlignedWords(words)
	}
	return bufs
}

// ---------------------------------------------------------------------------
// Versioned payload codec
// ---------------------------------------------------------------------------

// HeaderSize is the number of bytes of payload overhead added by Encode:
// an 8-byte head version, an 8-byte declared length, and an 8-byte tail
// version.
const HeaderSize = 24

// MinPayload is the smallest payload Encode can produce.
const MinPayload = HeaderSize

// ErrTorn reports a payload whose redundant markers disagree — the
// signature of a torn (non-atomic) read.
var ErrTorn = errors.New("membuf: torn payload")

// ErrShort reports a payload too small to carry the codec header.
var ErrShort = errors.New("membuf: payload shorter than codec header")

// Encode writes a verifiable payload for version into dst and returns dst.
// The entire slice participates: head marker, declared length, body fill
// derived from the version, tail marker. len(dst) must be ≥ MinPayload.
func Encode(dst []byte, version uint64) []byte {
	if len(dst) < MinPayload {
		panic(fmt.Sprintf("membuf: Encode into %d bytes; need at least %d", len(dst), MinPayload))
	}
	binary.LittleEndian.PutUint64(dst[0:8], version)
	binary.LittleEndian.PutUint64(dst[8:16], uint64(len(dst)))
	fillBody(dst[16:len(dst)-8], version)
	binary.LittleEndian.PutUint64(dst[len(dst)-8:], version)
	return dst
}

// Version extracts the head version marker without verifying the payload.
func Version(p []byte) uint64 {
	if len(p) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(p[0:8])
}

// Verify checks the full payload invariant and returns the version it
// carries. It fails with ErrTorn if the head and tail markers disagree, if
// the declared length does not match, or if any body byte deviates from
// the deterministic fill — i.e. whenever the payload mixes bytes from two
// different writes.
func Verify(p []byte) (uint64, error) {
	if len(p) < MinPayload {
		return 0, ErrShort
	}
	head := binary.LittleEndian.Uint64(p[0:8])
	declared := binary.LittleEndian.Uint64(p[8:16])
	tail := binary.LittleEndian.Uint64(p[len(p)-8:])
	if head != tail {
		return head, fmt.Errorf("%w: head version %d, tail version %d", ErrTorn, head, tail)
	}
	if declared != uint64(len(p)) {
		return head, fmt.Errorf("%w: declared length %d, actual %d", ErrTorn, declared, len(p))
	}
	if err := verifyBody(p[16:len(p)-8], head); err != nil {
		return head, err
	}
	return head, nil
}

// VerifyQuick checks only the head and tail markers (O(1)). The
// throughput harness uses it in processing mode where a full-body scan is
// the measured work and is performed separately.
func VerifyQuick(p []byte) (uint64, error) {
	if len(p) < MinPayload {
		return 0, ErrShort
	}
	head := binary.LittleEndian.Uint64(p[0:8])
	tail := binary.LittleEndian.Uint64(p[len(p)-8:])
	if head != tail {
		return head, fmt.Errorf("%w: head version %d, tail version %d", ErrTorn, head, tail)
	}
	return head, nil
}

// fillBody writes the deterministic body fill for version: a xorshift
// stream seeded by the version, emitted 8 bytes at a time with a byte-wise
// tail. Body fills for distinct versions differ in essentially every word,
// making mixed-version bodies detectable.
func fillBody(body []byte, version uint64) {
	rng := pad.NewXorShift64(version*2654435761 + 1)
	i := 0
	for ; i+8 <= len(body); i += 8 {
		binary.LittleEndian.PutUint64(body[i:i+8], rng.Next())
	}
	if i < len(body) {
		w := rng.Next()
		for ; i < len(body); i++ {
			body[i] = byte(w)
			w >>= 8
		}
	}
}

// verifyBody re-derives the fill and compares.
func verifyBody(body []byte, version uint64) error {
	rng := pad.NewXorShift64(version*2654435761 + 1)
	i := 0
	for ; i+8 <= len(body); i += 8 {
		if binary.LittleEndian.Uint64(body[i:i+8]) != rng.Next() {
			return fmt.Errorf("%w: body corrupt at offset %d (version %d)", ErrTorn, 16+i, version)
		}
	}
	if i < len(body) {
		w := rng.Next()
		for ; i < len(body); i++ {
			if body[i] != byte(w) {
				return fmt.Errorf("%w: body corrupt at tail offset %d (version %d)", ErrTorn, 16+i, version)
			}
			w >>= 8
		}
	}
	return nil
}

// Checksum computes a cheap 64-bit FNV-1a digest of p. The workload
// generator's processing mode uses it as the "read scans the whole buffer"
// step from §5 of the paper, with a data dependency the compiler cannot
// elide.
func Checksum(p []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range p {
		h ^= uint64(b)
		h *= prime
	}
	return h
}
