package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"gossip/internal/gossip"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
)

// engineSizes sizes the serial engine workloads.
type engineSizes struct {
	n         int // nodes
	bridge    int // dtg-slow-bridge: latency of the slow bridge
	perRound  int // jobs in the fixed job list
	maxRounds int // engine-pushpull horizon
}

var (
	fullEngine = engineSizes{n: 1 << 17, perRound: 3, maxRounds: 1 << 12}
	fullDTG    = engineSizes{n: 1 << 18, bridge: 1 << 16, perRound: 3}
)

// seedRNG derives the workload's input generator from the seed and a
// stream label, so each input family is independent of the others.
func seedRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// layerJob is the per-layer record of one traced simulation job.
type layerJob struct {
	exchanges, rounds float64
	wall              time.Duration
	mallocs, bytes    uint64
}

// measureJob runs fn as one simulation job and times it. With mem set
// (traced runs only: runtime.ReadMemStats stops the world) it also
// reads the allocation counters around it.
func measureJob(mem bool, fn func() gossip.DriverResult) (gossip.DriverResult, layerJob) {
	var m0, m1 memSample
	if mem {
		m0 = readMem()
	}
	t0 := time.Now()
	res := fn()
	wall := time.Since(t0)
	if mem {
		m1 = readMem()
	}
	return res, layerJob{
		exchanges: float64(res.Exchanges), rounds: float64(res.Rounds), wall: wall,
		mallocs: m1.mallocs - m0.mallocs, bytes: m1.bytes - m0.bytes,
	}
}

// setSimLayers records the sim.* per-layer metrics (medians per job)
// and the collector's work gc per operation.
func (r *run) setSimLayers(jobs []layerJob, gc gcSample, ops int) {
	var ex, rounds, exps, rps, mallocs, mb []float64
	for _, j := range jobs {
		ex = append(ex, j.exchanges)
		rounds = append(rounds, j.rounds)
		exps = append(exps, j.exchanges/j.wall.Seconds())
		rps = append(rps, j.rounds/j.wall.Seconds())
		mallocs = append(mallocs, float64(j.mallocs))
		mb = append(mb, float64(j.bytes)/(1<<20))
	}
	r.setLayer("sim.exchanges", zeroIfNaN(median(ex)), "count")
	r.setLayer("sim.rounds", zeroIfNaN(median(rounds)), "count")
	r.setLayer("sim.exchanges_per_s", zeroIfNaN(median(exps)), "1/s")
	r.setLayer("sim.rounds_per_s", zeroIfNaN(median(rps)), "1/s")
	r.setLayer("sim.mallocs", zeroIfNaN(median(mallocs)), "count")
	r.setLayer("sim.alloc_mb", zeroIfNaN(median(mb)), "MB")
	if ops < 1 {
		ops = 1
	}
	r.setLayer("runtime.gc_cpu_s", gc.cpu/float64(ops), "s")
	r.setLayer("runtime.gc_cycles", float64(gc.cycles)/float64(ops), "count")
}

// setServerLayersAbsent records the service and fleet per-layer metrics
// of a workload that starts no server: 0, as the README's table says.
func (r *run) setServerLayersAbsent(fleet bool) {
	names := []struct{ name, unit string }{
		{"server.exec_ms", "ms"}, {"server.overhead_ms", "ms"},
		{"server.sweep_p50_ms", "ms"}, {"server.estimate_p50_ms", "ms"},
		{"estimate.candidates", "count"}, {"server.cache_hit_ratio", "ratio"},
		{"server.body_bytes", "B"},
	}
	if !fleet {
		names = append(names, struct{ name, unit string }{"cluster.overhead_s", "s"})
	}
	for _, m := range names {
		if _, ok := r.layer[m.name]; !ok {
			r.setLayer(m.name, 0, m.unit)
		}
	}
}

// runEnginePushPull is the engine-pushpull workload: push-pull
// one-to-all on the streamed ring+matching expander through
// gossip.Dispatch, one job at a time over a fixed list of (source,
// seed) pairs. Each result is checked against Dijkstra distances from
// the source.
func runEnginePushPull(r *run, sz engineSizes) error {
	type ppJob struct {
		source int
		seed   uint64
	}
	var csr *graph.CSR
	var jobs []ppJob
	var buildTimes []float64
	_, err := r.setup(func() (func(), error) {
		rng := seedRNG(r.seed, 1)
		var err error
		t0 := time.Now()
		r.tr.around("graphgen.RingMatchingExpanderCSR", -1, -1, func() {
			csr, err = graphgen.RingMatchingExpanderCSR(sz.n, 1, graphgen.NewRand(rng.Uint64()))
		})
		buildTimes = append(buildTimes, time.Since(t0).Seconds())
		jobs = jobs[:0]
		for i := 0; i < sz.perRound; i++ {
			jobs = append(jobs, ppJob{source: rng.IntN(sz.n), seed: rng.Uint64()})
		}
		return nil, err
	})
	if err != nil {
		return err
	}

	dist := map[int][]int64{} // source -> distances, computed once per source
	var layerJobs []layerJob
	ops := r.jobLoop("engine-pushpull", len(jobs), func(j int, op int64, traced bool) (func() error, error) {
		jb := jobs[j]
		opts := gossip.DriverOptions{
			Source: jb.source, Seed: jb.seed, MaxRounds: sz.maxRounds,
			ExecOptions: gossip.ExecOptions{CSR: csr},
		}
		var err error
		res, lj := measureJob(traced, func() (res gossip.DriverResult) {
			r.tr.around("gossip.Dispatch", op, -1, func() { res, err = gossip.Dispatch("push-pull", nil, opts) })
			return res
		})
		if traced {
			layerJobs = append(layerJobs, lj)
		}
		return func() error {
			if err != nil {
				return err
			}
			d, ok := dist[jb.source]
			if !ok {
				d = distances(csr, jb.source)
				dist[jb.source] = d
			}
			tight, cerr := checkBroadcast(res.Completed, res.Exchanges, res.Messages, res.InformedAt, d)
			if cerr == nil && op < int64(len(jobs)) {
				fmt.Fprintf(r.log, "engine-pushpull job %d: %d rounds, %d exchanges, %d nodes informed exactly at their distance\n",
					j, res.Rounds, res.Exchanges, tight)
			}
			return cerr
		}, nil
	})
	r.jobE2E(ops)
	if r.tr == nil {
		return nil
	}
	r.setLayer("graphgen.build_s", median(buildTimes), "s")
	r.setSimLayers(layerJobs, opsGC(ops), len(ops))
	traced, plain := opLatencies(ops)
	r.traceOverhead(traced, plain)
	var dls []distLayer
	for j, jb := range jobs[:1] {
		dl, err := measureDist(r.tr, int64(-1-j), "push-pull", nil, gossip.DriverOptions{
			Source: jb.source, Seed: jb.seed, MaxRounds: sz.maxRounds,
			ExecOptions: gossip.ExecOptions{CSR: csr},
		})
		if err != nil {
			r.breakRun("engine-pushpull sharded layer run: %v", err)
			continue
		}
		dls = append(dls, dl)
	}
	r.setDistLayers(dls)
	r.setServerLayersAbsent(false)
	return nil
}

// runDTGSlowBridge is the dtg-slow-bridge workload: ℓ-DTG local
// broadcast on two rings joined by one slow bridge, one job at a time
// over a fixed list of seeds. Each result is checked against the CSR
// adjacency: every node must know every neighbour's rumor, and the run
// cannot be shorter than the bridge latency.
func runDTGSlowBridge(r *run, sz engineSizes) error {
	var csr *graph.CSR
	var seeds []uint64
	var buildTimes []float64
	_, err := r.setup(func() (func(), error) {
		rng := seedRNG(r.seed, 2)
		var err error
		t0 := time.Now()
		r.tr.around("graphgen.SlowBridgeRingCSR", -1, -1, func() {
			csr, err = graphgen.SlowBridgeRingCSR(sz.n, sz.bridge)
		})
		buildTimes = append(buildTimes, time.Since(t0).Seconds())
		seeds = seeds[:0]
		for i := 0; i < sz.perRound; i++ {
			seeds = append(seeds, rng.Uint64())
		}
		return nil, err
	})
	if err != nil {
		return err
	}

	var layerJobs []layerJob
	ops := r.jobLoop("dtg-slow-bridge", len(seeds), func(j int, op int64, traced bool) (func() error, error) {
		opts := gossip.DriverOptions{Seed: seeds[j], ExecOptions: gossip.ExecOptions{CSR: csr}}
		var err error
		res, lj := measureJob(traced, func() (res gossip.DriverResult) {
			r.tr.around("gossip.Dispatch", op, -1, func() { res, err = gossip.Dispatch("dtg", nil, opts) })
			return res
		})
		if traced {
			layerJobs = append(layerJobs, lj)
		}
		return func() error {
			if err != nil {
				return err
			}
			if res.Sim == nil || res.Sim.World == nil {
				return fmt.Errorf("dtg result carries no final state")
			}
			views := res.Sim.World.Views
			return checkLocalBroadcast(csr, func(u, rumor int) bool { return views[u].Knows(rumor) },
				res.Completed, res.Rounds, sz.bridge)
		}, nil
	})
	r.jobE2E(ops)
	if r.tr == nil {
		return nil
	}
	r.setLayer("graphgen.build_s", median(buildTimes), "s")
	r.setSimLayers(layerJobs, opsGC(ops), len(ops))
	traced, plain := opLatencies(ops)
	r.traceOverhead(traced, plain)
	var dls []distLayer
	dl, err := measureDist(r.tr, -1, "dtg", nil, gossip.DriverOptions{Seed: seeds[0], ExecOptions: gossip.ExecOptions{CSR: csr}})
	if err != nil {
		r.breakRun("dtg-slow-bridge sharded layer run: %v", err)
	} else {
		dls = append(dls, dl)
	}
	r.setDistLayers(dls)
	r.setServerLayersAbsent(false)
	return nil
}
