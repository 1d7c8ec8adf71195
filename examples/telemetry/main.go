// Telemetry snapshots: a metrics collector aggregates counters from many
// producers and periodically publishes a consistent multi-word snapshot
// through an ARC register; scrapers (exporters, dashboards, health
// checks) read the freshest snapshot wait-free and never observe a
// half-updated one — the atomicity guarantee doing real work.
//
// The snapshot is deliberately multi-word (many counters serialized
// together): with plain shared memory, a scraper could see counter A from
// one aggregation round and counter B from the next. The register makes
// the whole snapshot one atomic unit.
//
// The register also observes ITSELF: arcreg.Observe exports its live
// Stats tree through expvar (the standard /debug/vars JSON), and the
// run ends with the same tree as a text dump — publication epoch,
// reader occupancy, watcher ledgers — recorded with zero RMW and zero
// allocations on the paths being observed (DESIGN.md §10).
//
//	go run ./examples/telemetry
package main

import (
	"encoding/binary"
	"expvar"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"arcreg"
)

const counters = 64 // one snapshot = 64 uint64 counters + a round header

// snapshotSize: 8-byte round + 8-byte sum + counters.
const snapshotSize = 16 + counters*8

func main() {
	reg, err := arcreg.New[[]byte](
		arcreg.WithCodec(arcreg.Raw()),
		arcreg.WithReaders(6),
		arcreg.WithMaxValueSize(snapshotSize),
		arcreg.WithInitialBytes(make([]byte, snapshotSize)), // round 0, all counters 0
	)
	if err != nil {
		log.Fatal(err)
	}

	// Self-observation: export the register's own live stats tree as an
	// expvar (an HTTP server would now serve it at /debug/vars).
	arcreg.Observe("snapshot-register", reg)

	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		scrapes atomic.Uint64
		live    [counters]atomic.Uint64 // the producers' live counters
	)

	// Producers: bump counters concurrently (they are NOT the register
	// writer — they feed the collector).
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for !stop.Load() {
				live[(p*17)%counters].Add(1)
				live[(p*31+7)%counters].Add(3)
			}
		}(p)
	}

	// Scrapers: read the freshest snapshot and check its invariant — the
	// embedded sum must equal the sum of the embedded counters. A torn
	// snapshot would fail this immediately.
	for s := 0; s < 6; s++ {
		rd, err := reg.NewReader()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer rd.Close()
			var lastRound uint64
			for !stop.Load() {
				v, err := rd.ViewBytes() // zero-copy: scrape without moving bytes
				if err != nil {
					log.Fatalf("scraper %d: %v", id, err)
				}
				round := binary.LittleEndian.Uint64(v[0:8])
				claimed := binary.LittleEndian.Uint64(v[8:16])
				var sum uint64
				for i := 0; i < counters; i++ {
					sum += binary.LittleEndian.Uint64(v[16+i*8:])
				}
				if sum != claimed {
					log.Fatalf("scraper %d: TORN SNAPSHOT round %d: sum %d != claimed %d",
						id, round, sum, claimed)
				}
				if round < lastRound {
					log.Fatalf("scraper %d: snapshot went backwards: %d after %d",
						id, round, lastRound)
				}
				lastRound = round
				scrapes.Add(1)
			}
		}(s)
	}

	// The collector: the register's single writer. Every 2ms it freezes
	// the live counters into a consistent snapshot and publishes it.
	buf := make([]byte, snapshotSize)
	const rounds = 500
	for round := uint64(1); round <= rounds; round++ {
		var sum uint64
		for i := 0; i < counters; i++ {
			c := live[i].Load()
			binary.LittleEndian.PutUint64(buf[16+i*8:], c)
			sum += c
		}
		binary.LittleEndian.PutUint64(buf[0:8], round)
		binary.LittleEndian.PutUint64(buf[8:16], sum)
		if err := reg.Set(buf); err != nil {
			log.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	stop.Store(true)
	wg.Wait()
	fmt.Printf("collector published %d snapshots; scrapers performed %d consistent scrapes\n",
		rounds, scrapes.Load())
	fmt.Println("every scrape saw an internally consistent snapshot (sum invariant held)")

	// The register's own telemetry, two ways: the text dump of the live
	// Stats tree, and the same tree as expvar JSON — what a scraper
	// hitting /debug/vars would receive.
	sn := reg.Stats()
	fmt.Println("\nregister stats tree:")
	sn.WriteText(os.Stdout)
	if epoch, ok := sn.Child("notify").Get("epoch"); !ok || epoch < rounds {
		log.Fatalf("notify epoch %d, want >= %d publications", epoch, rounds)
	}
	fmt.Printf("\nexpvar %q serves the same tree (%d bytes of JSON)\n",
		"snapshot-register", len(expvar.Get("snapshot-register").String()))
}
