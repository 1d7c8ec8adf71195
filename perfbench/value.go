package main

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Checked values. Every value a workload writes carries its sequence
// number and a checksum, so the benchmark can tell a torn, stale or
// foreign value from a good one without trusting the program under test.

var le = binary.LittleEndian

const (
	mixA = 0x9E3779B97F4A7C15
	mixB = 0xBF58476D1CE4E5B9
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= mixB
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// A blob is a byte value of a multiple of 8 bytes, at least 48:
//
//	[0:8]    sequence
//	[8:16]   checksum over every other byte
//	[16:n-8] payload words, a function of the salt and the sequence
//	[n-8:n]  sequence again
//
// Every value read is checked whole: both copies of the sequence and the
// checksum.
const (
	blobMin  = 48
	offMeta  = 16 // first payload word; http-edge stores metadata from here
	metaSend = offMeta
	metaKey  = offMeta + 8
	metaOp   = offMeta + 16
)

// fillBlob writes the value for seq into b and seals it.
func fillBlob(b []byte, salt, seq uint64) {
	le.PutUint64(b, seq)
	w := salt ^ seq*mixA
	for i := offMeta; i < len(b)-8; i += 8 {
		le.PutUint64(b[i:], w+uint64(i)*mixB)
	}
	le.PutUint64(b[len(b)-8:], seq)
	seal(b)
}

// seal recomputes b's checksum after its payload changed.
func seal(b []byte) { le.PutUint64(b[8:], blobSum(b)) }

// blobSum hashes the sequence and every payload word. Four independent
// lanes keep the pass over a 4 KB value short enough to run on every
// read; a word's lane and its place in the lane make its position count.
func blobSum(b []byte) uint64 {
	var h0, h1, h2, h3 uint64
	p := b[offMeta:]
	for ; len(p) >= 32; p = p[32:] {
		h0 = bits.RotateLeft64(h0, 5) ^ le.Uint64(p[0:8])
		h1 = bits.RotateLeft64(h1, 5) ^ le.Uint64(p[8:16])
		h2 = bits.RotateLeft64(h2, 5) ^ le.Uint64(p[16:24])
		h3 = bits.RotateLeft64(h3, 5) ^ le.Uint64(p[24:32])
	}
	for ; len(p) >= 8; p = p[8:] {
		h0 = bits.RotateLeft64(h0, 5) ^ le.Uint64(p)
	}
	h := mix64(le.Uint64(b))
	for _, x := range [4]uint64{h0, h1, h2, h3} {
		h = mix64(h ^ x)
	}
	return h
}

// blobSeq returns b's sequence if both copies agree.
func blobSeq(b []byte) (uint64, bool) {
	if len(b) < blobMin || len(b)%8 != 0 {
		return 0, false
	}
	seq := le.Uint64(b)
	return seq, le.Uint64(b[len(b)-8:]) == seq
}

// blobValid reports whether b is well formed and its checksum holds.
func blobValid(b []byte) bool {
	_, ok := blobSeq(b)
	return ok && le.Uint64(b[8:]) == blobSum(b)
}

// Quote is the map-typed value: about 150 bytes of JSON.
type Quote struct {
	Key     string  `json:"key"`
	Seq     uint64  `json:"seq"`
	Bid     float64 `json:"bid"`
	Ask     float64 `json:"ask"`
	BidSize int64   `json:"bid_size"`
	AskSize int64   `json:"ask_size"`
	Last    float64 `json:"last"`
	Volume  int64   `json:"volume"`
	Check   uint64  `json:"check"`
}

// strHash is FNV-1a, so quotes are the same in every process.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

func newQuote(salt uint64, key string, seq uint64) Quote {
	r := mix64(salt ^ seq*mixA ^ strHash(key))
	bid := 50 + float64(r%100000)/1000
	q := Quote{
		Key:     key,
		Seq:     seq,
		Bid:     bid,
		Ask:     bid + float64(r>>20%500+1)/1000,
		BidSize: int64(r >> 30 % 10000),
		AskSize: int64(r >> 40 % 10000),
		Last:    bid + float64(r>>50%250)/1000,
		Volume:  int64(seq * 100),
	}
	q.Check = q.sum()
	return q
}

func (q Quote) sum() uint64 {
	h := strHash(q.Key)
	for _, w := range []uint64{q.Seq, math.Float64bits(q.Bid), math.Float64bits(q.Ask),
		uint64(q.BidSize), uint64(q.AskSize), math.Float64bits(q.Last), uint64(q.Volume)} {
		h = mix64(h ^ w)
	}
	return h
}

func (q Quote) valid() bool { return q.Check == q.sum() }
