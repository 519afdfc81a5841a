package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"gossip/internal/gossip"
	"gossip/internal/loadgen"
	"gossip/internal/server"
	"gossip/internal/server/api"
)

// serviceSizes sizes the service-mix workload. A round is a fixed
// make-up of requests, shuffled; the timed phase runs whole rounds.
type serviceSizes struct {
	clients   int // closed-loop clients, one connection each
	hot       int // hot-set simulations, primed before the timed phase
	hits      int // per round: replays of hot-set requests
	misses    int // per round: unique-seed simulations
	sweeps    int // per round: unique /v1/sweeps requests
	estimates int // per round: unique /v1/estimates requests
	// sampleRounds is how many leading rounds have every miss replayed
	// in-process, off the clock.
	sampleRounds int
	// distSample is how many distributable replayed misses a traced run
	// also runs sharded for the dist.* and api.* layers.
	distSample int
	// stretch is how many rounds the timed phase runs between two
	// pauses, in which the benchmark generates requests and checks
	// responses off the clock.
	stretch int
}

// fullService sends 2 estimates per round. With 1, the estimates' 1%
// share, the slowest kind at the median, would end exactly at the p99
// rank of each stretch.
var fullService = serviceSizes{
	clients: 2, hot: 48, hits: 67, misses: 27, sweeps: 4, estimates: 2,
	sampleRounds: 12, distSample: 8, stretch: 16,
}

func (sz serviceSizes) perRound() int { return sz.hits + sz.misses + sz.sweeps + sz.estimates }

// missShape is one driver on one graph family, the unit the miss and
// hot-set generators rotate through.
type missShape struct {
	driver string
	graph  api.GraphSpec
	known  bool   // known_latencies
	fault  string // fault_spec
}

// missShapes covers all ten drivers and every graph family at sizes
// that keep one job to a few milliseconds. A quarter of them carry a
// fault schedule.
var missShapes = func() []missShape {
	graphs := []api.GraphSpec{
		{Family: "clique", N: 12},
		{Family: "star", N: 12, Latency: 2},
		{Family: "path", N: 10},
		{Family: "cycle", N: 12, Latency: 3},
		{Family: "grid", N: 16, Latency: 2},
		{Family: "tree", N: 15},
		{Family: "er", N: 14, P: 0.5},
		{Family: "regular", N: 16},
		{Family: "dumbbell", N: 6, Latency: 8},
		{Family: "ring", N: 4, Layers: 3, Latency: 2},
		{Family: "gadget", N: 6, Latency: 4},
	}
	drivers := []string{"push-pull", "flood", "dtg", "superstep", "rr",
		"spanner", "pattern", "auto", "election", "echo"}
	faults := map[string]string{
		"push-pull": "loss=0.1",
		"flood":     "loss=0.1",
		"rr":        "loss=0.1",
		"election":  "loss=0.1",
		"echo":      "loss=0.05",
	}
	var out []missShape
	for i, d := range drivers {
		for j := range graphs {
			g := graphs[(i+j)%len(graphs)]
			s := missShape{driver: d, graph: g, known: d == "spanner" || d == "auto"}
			if (i+j)%4 == 0 {
				s.fault = faults[d]
			}
			out = append(out, s)
		}
	}
	return out
}()

func (s missShape) spec(seed uint64) api.JobSpec {
	spec := api.JobSpec{Driver: s.driver, Graph: s.graph, Seed: seed, FaultSpec: s.fault}
	if s.known {
		kl := true
		spec.KnownLatencies = &kl
	}
	return spec
}

type reqKind int

const (
	kindHit reqKind = iota
	kindMiss
	kindSweep
	kindEstimate
)

var kindNames = [...]string{"hit", "miss", "sweep", "estimate"}

// mixReq is one request of the mix.
type mixReq struct {
	kind reqKind
	path string
	body []byte
	hot  int         // kindHit: hot-set index
	spec api.JobSpec // kindMiss: the job; kindSweep: the base job
}

// hotSet is the mix's primed simulations, generated from the seed.
func hotSet(seed uint64, n int) []api.JobSpec {
	rng := seedRNG(seed, 4)
	out := make([]api.JobSpec, n)
	for i := range out {
		out[i] = missShapes[(i*7)%len(missShapes)].spec(rng.Uint64())
	}
	return out
}

// mixRound generates round k of the request sequence: the same make-up
// every round, fresh seeds for the unique requests, shuffled order.
func mixRound(seed uint64, k int, sz serviceSizes, hot [][]byte) []mixReq {
	rng := seedRNG(seed, 1000+uint64(k))
	out := make([]mixReq, 0, sz.perRound())
	for i := 0; i < sz.hits; i++ {
		h := rng.IntN(len(hot))
		out = append(out, mixReq{kind: kindHit, path: "/v1/simulations", body: hot[h], hot: h})
	}
	for i := 0; i < sz.misses; i++ {
		spec := missShapes[(k*sz.misses+i)%len(missShapes)].spec(rng.Uint64())
		out = append(out, mixReq{kind: kindMiss, path: "/v1/simulations", body: mustJSON(spec), spec: spec})
	}
	for i := 0; i < sz.sweeps; i++ {
		sw := loadgen.DefaultSweeps(rng.Uint64())[0]
		out = append(out, mixReq{kind: kindSweep, path: "/v1/sweeps", body: mustJSON(sw), spec: sw.Base})
	}
	for i := 0; i < sz.estimates; i++ {
		out = append(out, mixReq{kind: kindEstimate, path: "/v1/estimates", body: mustJSON(loadgen.DefaultEstimates(rng.Uint64())[0])})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// served is one answered request of the timed phase.
type served struct {
	op         int64
	round      int
	req        *mixReq
	lat        time.Duration
	status     int
	cache      string
	body       []byte
	err        error
	traced     bool
	candidates int // kindEstimate: candidates the search evaluated
}

// refCheck is a streamed result to compare with the in-process run of
// spec.
type refCheck struct {
	spec api.JobSpec
	got  api.JobResult // the miss's result, or the sweep's control variant
}

func (sv *served) name() string {
	return fmt.Sprintf("service-mix op %d (%s, round %d)", sv.op, kindNames[sv.req.kind], sv.round)
}

// runServiceMix is the service-mix workload: one in-process gossipd
// with the default configuration under a closed loop of two clients
// sending a seed-generated sequence of /v1 requests.
func runServiceMix(r *run, sz serviceSizes) error {
	ctx := context.Background()
	client := newClient(sz.clients)
	var local *loadgen.Local
	var hotBodies, hotFirst [][]byte
	release, err := r.setup(func() (func(), error) {
		var err error
		r.tr.around("loadgen.StartLocal", -1, -1, func() { local, err = loadgen.StartLocal(server.Config{}) })
		if err != nil {
			return nil, err
		}
		wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := waitHealthy(wctx, client, local.URL); err != nil {
			return local.Close, err
		}
		hotBodies = hotBodies[:0]
		for _, spec := range hotSet(r.seed, sz.hot) {
			hotBodies = append(hotBodies, mustJSON(spec))
		}
		return local.Close, nil
	})
	if release != nil {
		defer release()
	}
	if err != nil {
		return err
	}

	// Prime the hot set, untimed: these are requests of the workload
	// itself (each a miss), not set-up of the program, and a chain of
	// 48 round trips would make setup_s follow scheduling latency.
	for i, b := range hotBodies {
		status, _, body, err := post(ctx, client, local.URL+"/v1/simulations", b)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, body)
		}
		if err == nil {
			_, err = parseStream(body)
		}
		if err != nil {
			return fmt.Errorf("priming hot-set job %d: %w", i, err)
		}
		hotFirst = append(hotFirst, body)
	}

	// The timed phase runs whole rounds, each started while time
	// remains, in stretches of sz.stretch rounds. A stretch's request
	// bodies are generated before it and its responses parsed and checked
	// after it, off the clock, so the benchmark's own work neither
	// competes with the server for the cores nor counts in its CPU time.
	// Each stretch starts from a collected heap, so the garbage of that
	// work is not collected inside the next one either. The throughput
	// and the p99 are medians over the stretches, so a burst of load
	// from outside the process moves a few stretches, not the result.
	//
	// Only the latency and size of a request are kept past its stretch,
	// so the benchmark's own memory grows by a few numbers per request,
	// not by the request and its response. The in-process comparisons
	// are made at the end of each stretch too: the misses of the first
	// sampleRounds rounds, and every sweep's control variant against its
	// base job.
	var (
		n           int
		phase, cpu  time.Duration
		gc          gcSample
		rates, p99s []float64
		replays     []*inProcess

		hits, misses, hitT, hitP, sweeps, estimates, cands, bodies []float64
	)
	per := sz.perRound()
	met0 := local.Server.Metrics()
	for k0, timeUp := 0, false; !timeUp; k0 += sz.stretch {
		rounds := make([][]mixReq, sz.stretch)
		for k := range rounds {
			rounds[k] = mixRound(r.seed, k0+k, sz, hotBodies)
		}
		var (
			mu      sync.Mutex
			next    int
			stretch []*served
		)
		runtime.GC()
		gc0 := readGC()
		cpu0 := processCPU()
		start := time.Now()
		take := func() *served {
			mu.Lock()
			defer mu.Unlock()
			if next%per == 0 {
				if k0+next > 0 && phase+time.Since(start) >= r.seconds {
					timeUp = true
					return nil
				}
				if next == sz.stretch*per {
					return nil
				}
			}
			op := k0*per + next
			req := &rounds[op/per-k0][op%per]
			// Traced runs alternate traced and untraced rounds.
			sv := &served{op: int64(op), round: op / per, req: req,
				traced: r.tr != nil && (op/per)%2 == 0}
			stretch = append(stretch, sv)
			next++
			return sv
		}
		var wg sync.WaitGroup
		for c := 0; c < sz.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					sv := take()
					if sv == nil {
						return
					}
					req := sv.req
					tr := r.tr
					if !sv.traced {
						tr = nil
					}
					id := tr.begin("POST "+req.path+" ("+kindNames[req.kind]+")", sv.op, -1)
					t0 := time.Now()
					sv.status, sv.cache, sv.body, sv.err = post(ctx, client, local.URL+req.path, req.body)
					sv.lat = time.Since(t0)
					tr.end(id)
				}
			}()
		}
		wg.Wait()
		took := time.Since(start)
		phase += took
		cpu += processCPU() - cpu0
		gc = gc.plus(readGC().minus(gc0))
		if timeUp {
			r.endTimedPhase()
		}
		var lats []float64
		for _, sv := range stretch {
			r.attempted++
			ref, err := checkServed(sv, hotFirst)
			if err == nil && ref != nil && (sv.req.kind == kindSweep || sv.round < sz.sampleRounds) {
				var ip *inProcess
				ip, err = runInProcess(r.tr, sv.op, ref.spec)
				if err == nil {
					err = sameResult(ref.got, jobResult(ip.res))
				}
				if err == nil && sv.req.kind == kindMiss {
					replays = append(replays, ip)
				}
			}
			if err != nil {
				r.fail(sv.name(), err)
			}

			ms := 1000 * sv.lat.Seconds()
			lats = append(lats, ms)
			bodies = append(bodies, float64(len(sv.body)))
			switch {
			case sv.req.kind == kindSweep && sv.traced:
				sweeps = append(sweeps, ms)
			case sv.req.kind == kindEstimate && sv.traced:
				estimates = append(estimates, ms)
				cands = append(cands, float64(sv.candidates))
			case sv.req.kind == kindSweep || sv.req.kind == kindEstimate:
			case sv.cache == "hit":
				hits = append(hits, ms)
				if sv.traced {
					hitT = append(hitT, ms)
				} else {
					hitP = append(hitP, ms)
				}
			case sv.cache == "miss":
				misses = append(misses, ms)
			}
		}
		n += len(lats)
		if len(lats) > 0 {
			rates = append(rates, float64(len(lats))/took.Seconds())
			p99s = append(p99s, quantile(lats, 0.99))
		}
	}
	met1 := local.Server.Metrics()

	if len(replays) == 0 {
		return fmt.Errorf("no miss was replayed in-process")
	}

	var lj []layerJob
	var builds, execs []float64
	for _, ip := range replays {
		builds = append(builds, ip.build.Seconds())
		execs = append(execs, 1000*(ip.build+ip.exec).Seconds())
		lj = append(lj, ip.layer)
	}
	// The service's simulation jobs are the /v1/simulations requests
	// that executed: sim_s is their median latency, as on the fleet, and
	// sim_cpu_s the process CPU per request of the phase.
	r.setE2E("sim_s", zeroIfNaN(median(misses))/1000, "s")
	r.setE2E("sim_cpu_s", cpu.Seconds()/float64(n), "s")
	r.setE2E("req_per_s", median(rates), "1/s")
	r.setE2E("hit_p50_ms", zeroIfNaN(median(hits)), "ms")
	r.setE2E("miss_p50_ms", zeroIfNaN(median(misses)), "ms")
	r.setE2E("req_p99_ms", median(p99s), "ms")
	r.setE2E("req_cpu_ms", 1000*cpu.Seconds()/float64(n), "ms")
	if r.tr == nil {
		return nil
	}

	r.setLayer("graphgen.build_s", median(builds), "s")
	r.setSimLayers(lj, gc, n)
	r.traceOverhead(hitT, hitP)
	var dls []distLayer
	for _, ip := range replays {
		if len(dls) == sz.distSample {
			break
		}
		if !gossip.Distributable(ip.driver) || ip.opts.Adversity != nil {
			continue
		}
		dl, err := measureDist(r.tr, -1, ip.driver, ip.g, ip.opts)
		if err != nil {
			r.breakRun("service-mix sharded layer run of %s: %v", ip.driver, err)
			continue
		}
		dls = append(dls, dl)
	}
	r.setDistLayers(dls)
	exec := median(execs)
	r.setLayer("server.exec_ms", exec, "ms")
	r.setLayer("server.overhead_ms", zeroIfNaN(median(misses))-exec, "ms")
	r.setLayer("server.sweep_p50_ms", zeroIfNaN(median(sweeps)), "ms")
	r.setLayer("server.estimate_p50_ms", zeroIfNaN(median(estimates)), "ms")
	r.setLayer("estimate.candidates", zeroIfNaN(median(cands)), "count")
	dh, dm := met1.CacheHits-met0.CacheHits, met1.CacheMisses-met0.CacheMisses
	r.setLayer("server.cache_hit_ratio", float64(dh)/float64(max(1, dh+dm)), "ratio")
	r.setLayer("server.body_bytes", median(bodies), "B")
	r.setLayer("cluster.overhead_s", 0, "s")
	return nil
}

// checkServed checks one response and returns the check to make
// against an in-process run, if the request has one.
func checkServed(sv *served, hotFirst [][]byte) (*refCheck, error) {
	if sv.err != nil {
		return nil, sv.err
	}
	if sv.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", sv.status, sv.body)
	}
	if sv.req.kind == kindHit {
		// The primed body passed parseStream; a replay must equal it.
		return nil, checkReplay(hotFirst[sv.req.hot], sv.body)
	}
	st, err := parseStream(sv.body)
	if err != nil {
		return nil, err
	}
	switch sv.req.kind {
	case kindMiss:
		if st.last().Event != "result" {
			return nil, fmt.Errorf("simulation stream ends with %q", st.last().Event)
		}
		return &refCheck{spec: sv.req.spec, got: *st.last().Result}, nil
	case kindSweep:
		if st.last().Event != "sweep_result" {
			return nil, fmt.Errorf("sweep stream ends with %q", st.last().Event)
		}
		control, err := variantResult(st, 0)
		if err != nil {
			return nil, err
		}
		return &refCheck{spec: sv.req.spec, got: control}, nil
	case kindEstimate:
		sv.candidates, err = checkEstimate(st)
	}
	return nil, err
}
