package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"noelle/internal/ir"
	"noelle/internal/profiler"
	"noelle/internal/serve"
)

const (
	// serveClients is the number of closed-loop clients, one connection
	// each.
	serveClients = 2
	// serveMinRequests is the fewest requests a run sends, so
	// op_ms_tail (the round-trip p99) has at least minBeyond samples
	// beyond it.
	serveMinRequests = 1100
	// serveRate is how many requests a run sends, both clients
	// together, per second of --seconds: about what the nominal host
	// completes. The count depends on --seconds alone, so every run of
	// the same length attempts, and fails, the same requests.
	serveRate = 150
	// serveRound is the length of one round of client traffic.
	serveRound = 2 * time.Second
	// zipfS shapes the module popularity: the 41-module working set is
	// larger than the server's 16 resident sessions, so the draw mixes
	// session hits, misses and evictions.
	zipfS = 1.1
)

// Request kinds and their share of the mix.
const (
	kindRO   = "ro"   // perspective: read-only on the resident session
	kindTX   = "tx"   // licm,dead: transforming, a clone plus cache reads and writes
	kindAuto = "auto" // auto without executable plans: plan-only
)

var kindTools = map[string][]string{
	kindRO:   {"perspective"},
	kindTX:   {"licm", "dead"},
	kindAuto: {"auto"},
}

// serveRequest is one drawn request: which module, which pipeline.
type serveRequest struct {
	module int
	kind   string
}

// requestPlan draws a run's n requests and deals them to the clients
// in turn. The mix is the same for every seed: the pipelines take 7, 2
// and 1 tenths of n, and within each pipeline every module takes its
// Zipf(zipfS) share over a fixed popularity ranking, both apportioned
// by largest remainder. So runs with the same n send the same requests
// and fail the same ones: the licm,dead requests on the modules of the
// known dead miscompile. Each (module, pipeline) pair's requests are
// spaced evenly over the run from a seeded phase, so every stretch of
// the run holds each pair close to its share, and seeds differ in
// order, not in mix.
func requestPlan(seed int64, n, modules int) [][]serveRequest {
	rng := rand.New(rand.NewSource(seed))
	zipf := make([]float64, modules)
	for k := range zipf {
		zipf[k] = math.Pow(float64(k+1), -zipfS)
	}
	type slot struct {
		at float64
		r  serveRequest
	}
	var slots []slot
	for i, kn := range apportion(n, []float64{7, 2, 1}) {
		for m, c := range apportion(kn, zipf) {
			phase := rng.Float64()
			for j := 0; j < c; j++ {
				slots = append(slots, slot{(float64(j) + phase) / float64(c), serveRequest{m, kindMix[i]}})
			}
		}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].at < slots[b].at })
	out := make([][]serveRequest, serveClients)
	for i, s := range slots {
		out[i%serveClients] = append(out[i%serveClients], s.r)
	}
	return out
}

// kindMix lists the pipelines in the order of their 7/2/1 weights.
var kindMix = []string{kindRO, kindTX, kindAuto}

// apportion splits n into whole shares proportional to weights by the
// largest-remainder method; ties go to the earlier weight.
func apportion(n int, weights []float64) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		q := float64(n) * w / total
		counts[i] = int(q)
		rem[i] = q - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	return counts
}

// serveModules prints every corpus module, profiled, in a fixed
// popularity order (the seed-0 corpus shuffle, so every suite has
// popular members).
func serveModules() (names, texts []string, err error) {
	for _, b := range corpusOrder(0) {
		m, err := b.Compile()
		if err != nil {
			return nil, nil, err
		}
		prof, err := profiler.Collect(m)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		prof.Embed()
		names = append(names, b.Name)
		texts = append(texts, ir.Print(m))
	}
	return names, texts, nil
}

// daemon is one in-process server with its listener's directory.
type daemon struct {
	srv     *serve.Server
	dir     string
	addr    string
	served  chan error
	clients []*serve.Client
}

func startDaemon(base string, clients int) (*daemon, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "serve-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, addr: socketPath(filepath.Join(dir, "s.sock")), served: make(chan error, 1)}
	d.srv = serve.New(serve.Config{Workers: 2, CacheDir: filepath.Join(dir, "cache")})
	ln, err := net.Listen("unix", d.addr)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	for i := 0; i < clients; i++ {
		c, err := serve.Dial("unix:" + d.addr)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.clients = append(d.clients, c)
	}
	return d, nil
}

// socketPath returns path relative to the working directory when that
// is shorter: a unix socket address holds at most 107 bytes, and the
// checkout the benchmark runs in may sit deep in the file system.
func socketPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	if rel, err := filepath.Rel(wd, path); err == nil && len(rel) < len(path) {
		return rel
	}
	return path
}

// stop drains the server, waits for Serve to return and removes its
// directory.
func (d *daemon) stop() error {
	for _, c := range d.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// serveResult is one completed request.
type serveResult struct {
	kind       string
	start, end time.Time
	scale      float64 // the host-speed factor of the request's round
	ok         bool
	known      bool // failed with the corpus's known dead miscompile
	hit        bool
	coalesced  bool
	traced     bool
	err        string
}

func runServe(e *env) (*outcome, error) {
	var (
		names, texts []string
		d            *daemon
	)
	setup, err := timeSetup(e, func() error {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
			d = nil
		}
		var err error
		if names, texts, err = serveModules(); err != nil {
			return err
		}
		d, err = startDaemon(e.dir, serveClients)
		return err
	})
	if err != nil {
		if d != nil {
			d.stop()
		}
		return nil, err
	}

	tr := (*tracer)(nil)
	if e.traced {
		tr = newTracer(false)
	}
	o := newOutcome(tr)
	opts := serve.DefaultRunOptions()
	opts.Cores = e.nproc
	opts.PrecomputeWorkers = e.nproc

	// Each client walks its share of the run's requests, in rounds of
	// serveRound; the host-speed kernel runs between rounds, while the
	// server is idle. A round holds hundreds of requests, most far
	// shorter than the kernel, so every time is scaled by the kernel
	// timed before its round rather than per request. The loop ends
	// when every request has been answered.
	seqs := requestPlan(e.seed, max(serveMinRequests, serveRate*int(e.seconds/time.Second)), len(texts))
	results := make([][]serveResult, serveClients)
	broken := make([]error, serveClients)
	client := func(c int, deadline time.Time, scale float64) {
		for i := len(results[c]); i < len(seqs[c]) && time.Now().Before(deadline); i++ {
			r := seqs[c][i]
			traced := e.traced && i%2 == 1
			ptr := tr
			if !traced {
				ptr = nil
			}
			req := &serve.RunRequest{Module: texts[r.module], Tools: kindTools[r.kind], Opts: opts}
			res := serveResult{kind: r.kind, traced: traced, scale: scale, start: time.Now()}
			sp := ptr.begin(int64(c)<<32|int64(i), -1, "serve")
			done, err := d.clients[c].Run(req, nil)
			ptr.end(sp)
			res.end = time.Now()
			switch {
			case err != nil:
				res.err = err.Error()
			case done.Status != serve.StatusOK:
				res.err = done.Status + ": " + done.Error
				res.known = r.kind == kindTX && deadMiscompiled[names[r.module]] &&
					strings.HasPrefix(done.Error, "dead: transformed module rejected")
			default:
				res.ok, res.hit, res.coalesced = true, done.SessionHit, done.Coalesced
			}
			results[c] = append(results[c], res)
			if err != nil {
				broken[c] = err // the connection is unusable
				return
			}
		}
	}
	a0 := totalAlloc()
	start := time.Now()
	busy := 0.0 // seconds the clients ran, without the kernel pauses, scaled
	for {
		scale := e.speed.sample(5)
		r0 := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client(c, r0.Add(serveRound), scale)
			}(c)
		}
		wg.Wait()
		busy += time.Since(r0).Seconds() * scale
		if err := errors.Join(broken...); err != nil {
			d.stop()
			return nil, fmt.Errorf("client connection failed: %w", err)
		}
		pending := 0
		for c, rs := range results {
			pending += len(seqs[c]) - len(rs)
		}
		if pending == 0 {
			break
		}
	}
	end := time.Now()
	alloc := float64(totalAlloc()-a0) / (1 << 20)

	stats, serr := d.clients[0].Stats()
	reg := d.srv.Registry()
	evictions := reg.Counter("serve.session.evictions")
	qwait := reg.Histogram("serve.latency.queue_wait")
	if err := d.stop(); err != nil && serr == nil {
		serr = err
	}
	if serr != nil {
		return nil, serr
	}

	// A host that stayed contended leaves too few clean requests; then
	// every request counts, and the host line shows the steal.
	e.steal.sample()
	clean := 0
	for _, rs := range results {
		for _, r := range rs {
			if r.ok && !e.steal.contended(r.start, r.end) {
				clean++
			}
		}
	}
	keepContended := clean < serveMinRequests
	quiet := e.steal.quietSeconds(start, end) / end.Sub(start).Seconds()
	if keepContended || quiet <= 0 {
		quiet = 1
	}
	scale := e.speed.scale()
	var all, hitMS, missMS, tracedMS, plainMS []float64
	byKind := map[string][]float64{}
	var ok, hits, coalesced int
	for _, rs := range results {
		for _, r := range rs {
			o.attempted++
			if !r.ok {
				o.failed++
				if !r.known {
					o.unexpected++
					fmt.Printf("FAIL %s request: %s\n", r.kind, r.err)
				}
				continue
			}
			ok++
			if r.hit {
				hits++
			}
			if r.coalesced {
				coalesced++
			}
			if !keepContended && e.steal.contended(r.start, r.end) {
				e.steal.excluded++
				continue
			}
			ms := float64(r.end.Sub(r.start).Nanoseconds()) / 1e6 * r.scale
			all = append(all, ms)
			byKind[r.kind] = append(byKind[r.kind], ms)
			if r.traced {
				tracedMS = append(tracedMS, ms)
			} else {
				plainMS = append(plainMS, ms)
			}
			if r.kind == kindRO {
				if r.hit {
					hitMS = append(hitMS, ms)
				} else {
					missMS = append(missMS, ms)
				}
			}
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("no request completed on an uncontended host")
	}
	p50, err := percentile(all, 0.5)
	if err != nil {
		return nil, err
	}
	p99, err := percentile(all, 0.99)
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup
	o.e2e["ok_frac"] = 1 - float64(o.failed)/float64(o.attempted)
	o.e2e["op_ms_p50"] = p50
	o.e2e["op_ms_tail"] = p99
	o.e2e["alloc_mb"] = alloc / float64(o.attempted)
	o.e2e["speedup"] = ratio(median(missMS), median(hitMS))
	o.e2e["ops_per_s"] = float64(len(all)) / (busy * quiet)

	if e.traced {
		o.tracedLayers(nil, scale)
		o.layer["serve.ro_ms_p50"] = median(byKind[kindRO])
		o.layer["serve.tx_ms_p50"] = median(byKind[kindTX])
		o.layer["serve.auto_ms_p50"] = median(byKind[kindAuto])
		o.layer["serve.session_hit_ratio"] = ratio(float64(hits), float64(ok))
		o.layer["serve.coalesced_frac"] = ratio(float64(coalesced), float64(ok))
		o.layer["serve.evictions"] = float64(evictions)
		o.layer["serve.queue_wait_ms"] = float64(qwait.MeanNS()) / 1e6 * scale
		var cacheHits, cacheMisses int64
		for _, st := range stats.Stores {
			cacheHits += st.Hits
			cacheMisses += st.Misses
		}
		o.layer["abscache.hit_ratio"] = ratio(float64(cacheHits), float64(cacheHits+cacheMisses))
		o.traceOverhead(tracedMS, plainMS)
	}
	return o, nil
}
