// Market-data fan-out: a feed handler maintains an order book and
// publishes each revision through an ARC register; pricing/risk consumers
// read the freshest book wait-free at their own pace. This is the
// high-rate, many-consumer regime where the paper's numbers matter: the
// writer must never wait for a slow consumer (no lock), a consumer must
// never see a half-updated book (atomicity), and fast consumers re-reading
// an unchanged book pay zero RMW instructions (the ARC fast path).
//
//	go run ./examples/marketdata
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"arcreg"
)

const depth = 32 // price levels per side

// Book layout: 8B seq | 8B bestBid | 8B bestAsk | depth×16B bids | depth×16B asks
const bookSize = 24 + depth*16*2

type book struct {
	seq      uint64
	bids     [depth][2]uint64 // price, quantity — descending prices
	asks     [depth][2]uint64 // ascending prices
	scratch  []byte
	register *arcreg.TypedWriter[[]byte]
}

func (b *book) publish() error {
	buf := b.scratch
	binary.LittleEndian.PutUint64(buf[0:8], b.seq)
	binary.LittleEndian.PutUint64(buf[8:16], b.bids[0][0])
	binary.LittleEndian.PutUint64(buf[16:24], b.asks[0][0])
	off := 24
	for i := 0; i < depth; i++ {
		binary.LittleEndian.PutUint64(buf[off:], b.bids[i][0])
		binary.LittleEndian.PutUint64(buf[off+8:], b.bids[i][1])
		off += 16
	}
	for i := 0; i < depth; i++ {
		binary.LittleEndian.PutUint64(buf[off:], b.asks[i][0])
		binary.LittleEndian.PutUint64(buf[off+8:], b.asks[i][1])
		off += 16
	}
	return b.register.SetBytes(buf)
}

func main() {
	reg, err := arcreg.New[[]byte](arcreg.WithCodec(arcreg.Raw()),
		arcreg.WithReaders(5), arcreg.WithMaxValueSize(bookSize))
	if err != nil {
		log.Fatal(err)
	}

	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		readsOK  atomic.Uint64
		crossed  atomic.Uint64
		maxStale atomic.Uint64
	)

	// Consumers: compute spread/mid from the freshest book; verify the
	// book is never crossed (bid ≥ ask would indicate a torn snapshot,
	// since the writer always publishes consistent books).
	for c := 0; c < 5; c++ {
		rd, err := reg.NewReader()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer rd.Close()
			var lastSeq uint64
			for !stop.Load() {
				v, err := rd.ViewBytes()
				if err != nil || len(v) < 24 {
					continue
				}
				seq := binary.LittleEndian.Uint64(v[0:8])
				if seq == 0 {
					continue // initial empty book
				}
				bid := binary.LittleEndian.Uint64(v[8:16])
				ask := binary.LittleEndian.Uint64(v[16:24])
				if bid >= ask {
					crossed.Add(1)
					log.Fatalf("consumer %d: crossed book at seq %d: bid %d ≥ ask %d",
						id, seq, bid, ask)
				}
				if seq < lastSeq {
					log.Fatalf("consumer %d: book went backwards: %d after %d", id, seq, lastSeq)
				}
				if lastSeq != 0 && seq > lastSeq {
					if gap := seq - lastSeq - 1; gap > maxStale.Load() {
						maxStale.Store(gap) // revisions we skipped: freshness, not loss
					}
				}
				lastSeq = seq
				readsOK.Add(1)
			}
		}(c)
	}

	// The feed handler: apply updates and publish every revision.
	w, err := reg.NewWriter()
	if err != nil {
		log.Fatal(err)
	}
	b := &book{scratch: make([]byte, bookSize), register: w}
	const mid = 1_000_000
	for i := 0; i < depth; i++ {
		b.bids[i] = [2]uint64{mid - 1 - uint64(i), 100}
		b.asks[i] = [2]uint64{mid + 1 + uint64(i), 100}
	}
	start := time.Now()
	const revisions = 200_000
	rng := uint64(0x9E3779B97F4A7C15)
	for r := 1; r <= revisions; r++ {
		// A cheap deterministic "market event": perturb one level.
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		lvl := int(rng % depth)
		b.bids[lvl][1] = 1 + rng%1000
		b.asks[(lvl*7)%depth][1] = 1 + (rng>>10)%1000
		b.seq = uint64(r)
		if err := b.publish(); err != nil {
			log.Fatal(err)
		}
	}
	elapsed := time.Since(start)

	stop.Store(true)
	wg.Wait()
	fmt.Printf("feed handler: %d book revisions in %v (%.2f M revisions/s)\n",
		revisions, elapsed.Round(time.Millisecond),
		revisions/elapsed.Seconds()/1e6)
	fmt.Printf("consumers: %d consistent reads, 0 crossed books, max revision gap %d\n",
		readsOK.Load(), maxStale.Load())
}
