package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"

	"revive"
	"revive/internal/serve"
	"revive/internal/sim"
)

const (
	// serveClients is the closed loop's client count: at most nproc (2)
	// connections of load, each waiting for its reply before sending on.
	serveClients = 2
	// serveRepeats is the number of cached requests in one repetition.
	serveRepeats = 1000
)

// serveReq is one request of the mix; cold marks its first occurrence.
type serveReq struct {
	key  int // index into the cold set
	cold bool
}

// serveApps are the eight applications with the shortest 8-node Quick
// runs (0.1-0.25 s each on a 2-core Xeon); FFT, Cholesky, Ocean and Radix
// take 0.3-1.2 s and would make one repetition too long to repeat.
var serveApps = []string{"Barnes", "FMM", "LU", "Radiosity", "Raytrace", "Volrend", "Water-N2", "Water-Sp"}

// serveColdSet is every distinct request of the mix: each of serveApps on
// an 8-node Quick machine under each recovery backend.
func serveColdSet() []serve.Request {
	var out []serve.Request
	for _, strat := range revive.StrategyNames() {
		for _, a := range serveApps {
			out = append(out, serve.Request{Kind: "sim", Apps: []string{a}, Nodes: 8, Quick: true, Strategy: strat})
		}
	}
	return out
}

// serveSequences draws each client's request sequence from seed. The cold
// set is shuffled and dealt to the clients in turn; each client mixes its
// cold requests with repeats of its own earlier requests, which its closed
// loop has always completed, so every repeat is answered from the cache.
func serveSequences(seed uint64, cold int) [][]serveReq {
	rng := sim.NewRand(seed)
	perm := make([]int, cold)
	for i := range perm {
		perm[i] = i
	}
	for i := cold - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	seqs := make([][]serveReq, serveClients)
	for c := range seqs {
		var mine []int
		for i := c; i < cold; i += serveClients {
			mine = append(mine, perm[i])
		}
		repeats := serveRepeats / serveClients
		var seen []int
		for len(mine) > 0 || repeats > 0 {
			// Draw cold with probability (cold left)/(requests left), so
			// cold requests spread evenly over the sequence; the first
			// request is always cold.
			if len(seen) == 0 || (len(mine) > 0 && rng.Intn(len(mine)+repeats) < len(mine)) {
				seqs[c] = append(seqs[c], serveReq{key: mine[0], cold: true})
				seen = append(seen, mine[0])
				mine = mine[1:]
				continue
			}
			seqs[c] = append(seqs[c], serveReq{key: seen[rng.Intn(len(seen))]})
			repeats--
		}
	}
	return seqs
}

// serveMixWorkload drives an in-process revive-serve with a closed loop of
// serveClients keep-alive clients. Halfway through, the server is shut
// down and reopened on the same state directory, as a deploy would.
func serveMixWorkload() *workload {
	reqs := serveColdSet()
	bodies := make([][]byte, len(reqs))
	for i, q := range reqs {
		b, err := json.Marshal(q)
		if err != nil {
			panic(err)
		}
		bodies[i] = b
	}
	first := mustApp(reqs[0].Apps[0], revive.Options{Nodes: 8, Quick: true})
	w := &workload{
		name:     "serve-mix",
		why:      "the only workload through serve's HTTP path, journal and result cache; cached repeats run no simulation",
		requests: true,
		micro:    microInput{app: first.Profile, nodes: 8},
	}
	w.setupOnly = func(r *runner) {
		dir, err := os.MkdirTemp(scratchDir, "serve-")
		if err != nil {
			r.check("create state dir", err)
			return
		}
		defer os.RemoveAll(dir)
		var srv *serve.Server
		r.setup(func() { r.call("serve.New", func() { srv, err = serve.New(serve.Options{StateDir: dir}) }) })
		r.check("serve.New", err)
		if err == nil {
			r.check("Shutdown", srv.Shutdown(context.Background()))
		}
	}
	w.rep = func(r *runner) {
		seqs := serveSequences(r.seed, len(reqs))
		dir, err := os.MkdirTemp(scratchDir, "serve-")
		if err != nil {
			r.check("create state dir", err)
			return
		}
		defer os.RemoveAll(dir)
		opts := serve.Options{StateDir: dir}
		var srv *serve.Server
		r.setup(func() { r.call("serve.New", func() { srv, err = serve.New(opts) }) })
		r.check("serve.New", err)
		if err != nil {
			return
		}
		first := make([][]byte, len(reqs)) // each request's first response
		var mu sync.Mutex
		var deduped, hits uint64
		// phase serves one half of every client's sequence.
		phase := func(name string, half int) {
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			r.measure(name, func() {
				parent := r.cur
				var wg sync.WaitGroup
				for c, seq := range seqs {
					lo, hi := 0, len(seq)/2
					if half == 1 {
						lo, hi = hi, len(seq)
					}
					wg.Add(1)
					go func(c int, seq []serveReq) {
						defer wg.Done()
						client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
						defer client.CloseIdleConnections()
						for _, q := range seq {
							id := r.spans.begin("POST /run", r.rep, parent)
							status, body, err := post(client, ts.URL+"/run", bodies[q.key])
							lat := r.spans.end(id)
							mu.Lock()
							r.attempted++
							switch {
							case err != nil:
								r.fail(fmt.Sprintf("client %d request %d: %v", c, q.key, err))
							case status != http.StatusOK:
								r.fail(fmt.Sprintf("client %d request %d: status %d: %s", c, q.key, status, bytes.TrimSpace(body)))
							case first[q.key] == nil:
								first[q.key] = body
							case !bytes.Equal(first[q.key], body):
								r.fail(fmt.Sprintf("client %d request %d: response differs from its first response", c, q.key))
							}
							ms := lat.Seconds() * 1e3
							r.reqMS = append(r.reqMS, ms)
							if q.cold {
								r.coldMS = append(r.coldMS, ms)
							} else {
								r.cachedMS = append(r.cachedMS, ms)
							}
							mu.Unlock()
						}
					}(c, seq[lo:hi])
				}
				wg.Wait()
			})
			cs := srv.Counters()
			deduped += cs.Deduped
			hits += cs.CacheHits
		}
		phase("serve phase 1", 0)
		// The deploy: drain, then reopen on the same state directory.
		restart := r.call("restart", func() {
			r.check("Shutdown", srv.Shutdown(context.Background()))
			r.call("serve.New", func() { srv, err = serve.New(opts) })
		})
		r.check("serve.New after restart", err)
		if err != nil {
			return
		}
		phase("serve phase 2", 1)
		r.check("Shutdown", srv.Shutdown(context.Background()))

		// Digest every distinct response, so an A/B shows whether any
		// simulated output moved.
		h := sha256.New()
		for i, b := range first {
			fmt.Fprintf(h, "%d:%x\n", i, sha256.Sum256(b))
		}
		r.setDigest(h.Sum(nil))
		c := r.counts
		c["serve.restart_ms"] = restart.Seconds() * 1e3 // the deploy, not a probe
		c["serve.deduped"] = float64(deduped)
		c["serve.cache_hits"] = float64(hits)
	}
	return w
}

// post sends one request and reads the whole reply.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serveLatencies stores the cold and cached latency percentiles.
func serveLatencies(r *runner) {
	if len(r.coldMS) == 0 {
		return
	}
	c := r.counts
	c["serve.cold_p50_ms"] = median(r.coldMS)
	c["serve.cold_p75_ms"], _ = percentile(r.coldMS, 0.75)
	c["serve.cached_p50_ms"] = median(r.cachedMS)
	c["serve.cached_p99_ms"], _ = percentile(r.cachedMS, 0.99)
}
