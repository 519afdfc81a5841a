package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"gossip/internal/gossip"
	"gossip/internal/graphgen"
	"gossip/internal/loadgen"
	"gossip/internal/server"
	"gossip/internal/server/api"
)

// fleetSizes sizes the fleet-sharded workload.
type fleetSizes struct {
	n        int // nodes of each job's regular graph
	perRound int // jobs in the fixed job list
	members  int // fleet members
	shards   int // shards per job
}

var fullFleet = fleetSizes{n: 1 << 17, perRound: 3, members: 3, shards: 2}

// fleetCounters sums the shard counters over the fleet members.
func fleetCounters(f *loadgen.Fleet) shardCounters {
	var c shardCounters
	for _, m := range f.Members {
		s := m.Server.Metrics()
		c.jobs += s.ShardJobs
		c.sessions += s.ShardSessions
		c.failures += s.ShardFailures
	}
	return c
}

// runFleetSharded is the fleet-sharded workload: a 3-member in-process
// gossipd fleet receives push-pull jobs with "shards": 2, one at a
// time, over a fixed list of seeds. The fleet's cache is off so that a
// repeated job runs sharded again rather than replaying. Each result
// event must equal a serial in-process gossip.Dispatch of the same
// spec, and the shard counters must show the job ran sharded.
func runFleetSharded(r *run, sz fleetSizes) error {
	ctx := context.Background()
	client := newClient(2)
	spec := func(seed uint64, n int) api.JobSpec {
		return api.JobSpec{Driver: "push-pull", Graph: api.GraphSpec{Family: "regular", N: n, Latency: 1},
			Seed: seed, Shards: sz.shards}
	}
	var fleet *loadgen.Fleet
	var bodies [][]byte
	var seeds []uint64
	release, err := r.setup(func() (func(), error) {
		rng := seedRNG(r.seed, 3)
		var err error
		r.tr.around("loadgen.StartFleet", -1, -1, func() {
			fleet, err = loadgen.StartFleet(sz.members, server.Config{CacheSize: -1})
		})
		if err != nil {
			return nil, err
		}
		wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		for _, u := range fleet.URLs() {
			if err := waitHealthy(wctx, client, u); err != nil {
				return fleet.Close, err
			}
		}
		seeds, bodies = seeds[:0], bodies[:0]
		for i := 0; i < sz.perRound; i++ {
			seeds = append(seeds, rng.Uint64())
			bodies = append(bodies, mustJSON(spec(seeds[i], sz.n)))
		}
		return fleet.Close, nil
	})
	if release != nil {
		defer release()
	}
	if err != nil {
		return err
	}

	url := fleet.URLs()[0] + "/v1/simulations"
	type streamed struct {
		name string
		job  int
		got  api.JobResult
	}
	var results []streamed
	var bodyBytes []float64
	ops := r.jobLoop("fleet-sharded", len(seeds), func(j int, op int64, traced bool) (func() error, error) {
		before := fleetCounters(fleet)
		var status int
		var body []byte
		var err error
		r.tr.around("POST /v1/simulations (sharded)", op, -1, func() {
			status, _, body, err = post(ctx, client, url, bodies[j])
		})
		after := fleetCounters(fleet)
		return func() error {
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("status %d: %.200s", status, body)
			}
			bodyBytes = append(bodyBytes, float64(len(body)))
			st, err := parseStream(body)
			if err != nil {
				return err
			}
			if st.last().Event != "result" {
				return fmt.Errorf("simulation stream ends with %q", st.last().Event)
			}
			if err := checkSharded(before, after, sz.shards); err != nil {
				return err
			}
			results = append(results, streamed{fmt.Sprintf("fleet-sharded op %d (job %d)", op, j), j, *st.last().Result})
			return nil
		}, nil
	})

	// The serial references, after the timed phase: one per job, on both
	// cores in an untraced run (a traced run reads allocation counters
	// around each, so it runs them one at a time).
	refs := make([]*inProcess, len(seeds))
	refErrs := make([]error, len(seeds))
	workers := 2
	if r.tr != nil {
		workers = 1
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				s := spec(seeds[j], sz.n)
				s.Shards = 0
				refs[j], refErrs[j] = runInProcess(r.tr, -1, s)
				if refs[j] != nil {
					refs[j].g = nil // only the counts are kept
				}
			}
		}()
	}
	for j := range seeds {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	for _, res := range results {
		err := refErrs[res.job]
		if err == nil {
			err = sameResult(res.got, jobResult(refs[res.job].res))
		} else {
			err = fmt.Errorf("serial reference: %w", err)
		}
		if err != nil {
			r.fail(res.name, err)
		}
	}
	r.jobE2E(ops)
	if r.tr == nil {
		return nil
	}

	var builds []float64
	var lj []layerJob
	for _, ref := range refs {
		if ref == nil {
			continue
		}
		builds = append(builds, ref.build.Seconds())
		lj = append(lj, ref.layer)
	}
	r.setLayer("graphgen.build_s", zeroIfNaN(median(builds)), "s")
	r.setSimLayers(lj, opsGC(ops), len(ops))
	traced, plain := opLatencies(ops)
	r.traceOverhead(traced, plain)
	fleetLat := zeroIfNaN(median(traced))

	s := spec(seeds[0], sz.n)
	s.Shards = 0
	g, err := graphgen.Build(specGraph(s))
	if err != nil {
		return fmt.Errorf("rebuilding the graph for the sharded layer run: %w", err)
	}
	dl, err := measureDist(r.tr, -1, "push-pull", g, gossip.DriverOptions{Seed: s.Seed})
	if err != nil {
		r.breakRun("fleet-sharded sharded layer run: %v", err)
	} else {
		r.setDistLayers([]distLayer{dl})
		r.setLayer("cluster.overhead_s", fleetLat-zeroIfNaN(median(builds))-dl.wall.Seconds(), "s")
	}
	var hits, misses int64
	for _, m := range fleet.Members {
		hits += m.Server.Metrics().CacheHits
		misses += m.Server.Metrics().CacheMisses
	}
	r.setLayer("server.cache_hit_ratio", float64(hits)/float64(max(1, hits+misses)), "ratio")
	r.setLayer("server.body_bytes", zeroIfNaN(median(bodyBytes)), "B")
	r.setServerLayersAbsent(true)
	return nil
}
