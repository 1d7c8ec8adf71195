// Hot configuration reload: a config manager publishes JSON configuration
// through an ARC register while request-serving workers read it on every
// request — wait-free, so a reload never stalls a request and a slow
// request never stalls the reload. This is the "large-scale data sharing"
// scenario of the paper's title at application level: one writer, many
// readers, multi-word values.
//
//	go run ./examples/config
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"arcreg"
)

// Config is the application configuration the workers consult per request.
type Config struct {
	Generation   int           `json:"generation"`
	RateLimit    int           `json:"rate_limit"`
	Timeout      time.Duration `json:"timeout"`
	FeatureFlags []string      `json:"feature_flags"`
}

func main() {
	initial, _ := json.Marshal(Config{Generation: 0, RateLimit: 100, Timeout: time.Second})
	reg, err := arcreg.New[[]byte](
		arcreg.WithCodec(arcreg.Raw()),
		arcreg.WithReaders(8),
		arcreg.WithMaxValueSize(4096),
		arcreg.WithInitialBytes(initial),
	)
	if err != nil {
		log.Fatal(err)
	}

	var (
		wg        sync.WaitGroup
		stop      atomic.Bool
		requests  atomic.Uint64
		staleness atomic.Uint64 // requests served with an old generation
		latestGen atomic.Int64
	)

	// Workers: parse the freshest config before serving each "request".
	for i := 0; i < 8; i++ {
		rd, err := reg.NewReader()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer rd.Close()
			buf := make([]byte, 4096)
			for !stop.Load() {
				n, err := rd.ReadBytes(buf)
				if err != nil {
					log.Fatalf("worker %d: %v", id, err)
				}
				var cfg Config
				if err := json.Unmarshal(buf[:n], &cfg); err != nil {
					log.Fatalf("worker %d: config corrupt: %v", id, err)
				}
				// "Serve" a request under cfg.
				requests.Add(1)
				if int64(cfg.Generation) < latestGen.Load() {
					staleness.Add(1) // read overlapped a reload: old value is legal
				}
			}
		}(i)
	}

	// The config manager: reload 50 times, 10ms apart.
	for gen := 1; gen <= 50; gen++ {
		cfg := Config{
			Generation:   gen,
			RateLimit:    100 + gen,
			Timeout:      time.Second + time.Duration(gen)*time.Millisecond,
			FeatureFlags: []string{"wait-free-reads", fmt.Sprintf("gen-%d", gen)},
		}
		blob, _ := json.Marshal(cfg)
		if err := reg.Set(blob); err != nil {
			log.Fatal(err)
		}
		latestGen.Store(int64(gen))
		time.Sleep(10 * time.Millisecond)
	}

	stop.Store(true)
	wg.Wait()
	fmt.Printf("served %d requests across 50 config reloads\n", requests.Load())
	fmt.Printf("%d requests overlapped a reload and used the previous generation (allowed by atomicity)\n",
		staleness.Load())
	fmt.Println("no request ever blocked on a reload; no reload ever waited for requests")
}
