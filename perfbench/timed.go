package main

// The timed pass: closed-loop clients send the request list to pebbled
// over HTTP, each client sending its next request only after its
// previous one is answered.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"joinpebble/internal/serve"
)

// outcome is one request of the timed pass.
type outcome struct {
	resp    *serve.SolveResponse
	latency time.Duration // client side, including retries
	err     error
}

// runTimed sends list to pebbled from the given number of clients,
// which take requests in list order from a shared cursor. It returns one
// outcome per request and the wall time of the pass.
func runTimed(ctx context.Context, p *pebbled, list []Request, clients int, seed int64) ([]outcome, time.Duration) {
	outs := make([]outcome, len(list))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		cl := serve.NewClient(p.base, seed+int64(c))
		cl.HTTP = p.http
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(list) || ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				resp, _, err := cl.Solve(ctx, &list[i].Body)
				outs[i] = outcome{resp: resp, latency: time.Since(t0), err: err}
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// sendAll sends reqs one after another and returns the first error.
func sendAll(ctx context.Context, p *pebbled, reqs []serve.SolveRequest) error {
	cl := serve.NewClient(p.base, 0)
	cl.HTTP = p.http
	for i := range reqs {
		if _, _, err := cl.Solve(ctx, &reqs[i]); err != nil {
			return err
		}
	}
	return nil
}
