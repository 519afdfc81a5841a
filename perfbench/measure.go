package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up. setup_s is
// the median, so one slow start (a page-cache miss, a descheduled
// thread) does not decide it.
const setupReps = 101

// median returns the middle value of xs (mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (q in (0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// processCPU is the CPU time (user+system) of the whole process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcSample reads the collector's cumulative CPU time and cycle count.
type gcSample struct {
	cpu    float64 // seconds
	cycles uint64
}

func (g gcSample) plus(o gcSample) gcSample  { return gcSample{g.cpu + o.cpu, g.cycles + o.cycles} }
func (g gcSample) minus(o gcSample) gcSample { return gcSample{g.cpu - o.cpu, g.cycles - o.cycles} }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var g gcSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.cpu = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[1].Value.Uint64()
	}
	return g
}

// memSample is the allocation counters of runtime.MemStats.
type memSample struct{ mallocs, bytes uint64 }

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.Mallocs, ms.TotalAlloc}
}

// setup runs build setupReps times and records the median time as
// setup_s; the state of the last repetition is the one measured. The
// first repetition counts from process start, the others from their
// own start. release undoes one repetition's state (stops its servers)
// before the next one begins; it may be nil.
func (r *run) setup(build func() (release func(), err error)) (release func(), err error) {
	times := make([]float64, 0, setupReps)
	start := processStart
	for i := 0; i < setupReps; i++ {
		if release != nil {
			release()
		}
		if i > 0 {
			runtime.GC()
			start = time.Now()
		}
		span := r.tr.begin("setup", -1, -1)
		release, err = build()
		r.tr.end(span)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.setE2E("setup_s", median(times), "s")
	fmt.Fprintf(r.log, "setup: %.4f s median of %.4f s\n", median(times), times)
	return release, nil
}

// opStat is one timed operation.
type opStat struct {
	lat    time.Duration
	cpu    time.Duration
	gc     gcSample // the collector's work during the operation
	repeat bool     // an identical operation already ran earlier in the run
	traced bool     // ran with tracing and layer counters on
}

// jobLoop runs whole rounds over a fixed list of nJobs simulation jobs,
// one at a time, until the jobs' measured time reaches the run length.
// do runs job j and returns a check of its output, which runs after the
// job's timer stops. In a traced run, jobs alternate between traced
// and untraced so the run can state its own tracing overhead; with an
// odd job list both halves see every job and both cold and warm rounds.
func (r *run) jobLoop(label string, nJobs int, do func(j int, op int64, traced bool) (check func() error, err error)) []opStat {
	var ops []opStat
	var measured time.Duration
	for round := 0; round == 0 || measured < r.seconds; round++ {
		for j := 0; j < nJobs; j++ {
			op := int64(len(ops))
			traced := r.tr != nil && op%2 == 0
			r.tr.setOn(traced)
			// Every job starts from a collected heap, so the previous
			// job's garbage neither slows it nor raises its memory peak.
			// The collector is read after that forced collection, so the
			// GC metrics count only the collections the job itself causes.
			runtime.GC()
			gc0 := readGC()
			cpu0 := processCPU()
			t0 := time.Now()
			check, err := do(j, op, traced)
			lat := time.Since(t0)
			cpu := processCPU() - cpu0
			gc := readGC().minus(gc0)
			measured += lat
			ops = append(ops, opStat{lat: lat, cpu: cpu, gc: gc, repeat: round > 0, traced: traced})
			fmt.Fprintf(r.log, "%s op %d (job %d, round %d): %.4f s wall, %.4f s CPU\n", label, op, j, round, lat.Seconds(), cpu.Seconds())
			r.attempted++
			if err == nil {
				err = check()
			}
			if err != nil {
				r.fail(fmt.Sprintf("%s op %d (job %d, round %d)", label, op, j, round), err)
			}
		}
	}
	r.tr.setOn(r.tr != nil)
	r.endTimedPhase()
	return ops
}

// endTimedPhase reads the peak resident set as the timed phase ends,
// so memory the checks use afterwards does not count.
func (r *run) endTimedPhase() { r.rssMB = peakRSSMB() }

// jobE2E derives the end-to-end metrics of a workload whose operations
// are simulation jobs run one at a time: every job is both a simulation
// and a request, the first pass over the job list is the miss set and
// later passes repeat it.
func (r *run) jobE2E(ops []opStat) {
	var lat, cpu, hit, miss []float64
	for _, o := range ops {
		lat = append(lat, o.lat.Seconds())
		cpu = append(cpu, o.cpu.Seconds())
		if o.repeat {
			hit = append(hit, o.lat.Seconds())
		} else {
			miss = append(miss, o.lat.Seconds())
		}
	}
	if len(hit) == 0 {
		hit = miss
	}
	r.setE2E("sim_s", median(lat), "s")
	r.setE2E("sim_cpu_s", median(cpu), "s")
	r.setE2E("req_per_s", float64(len(ops))/sum(lat), "1/s")
	r.setE2E("hit_p50_ms", 1000*median(hit), "ms")
	r.setE2E("miss_p50_ms", 1000*median(miss), "ms")
	r.setE2E("req_p99_ms", 1000*quantile(lat, 0.99), "ms")
	r.setE2E("req_cpu_ms", 1000*sum(cpu)/float64(len(ops)), "ms")
}

// traceOverhead records trace.overhead_pct: how much slower the traced
// operations ran than the untraced ones of the same run.
func (r *run) traceOverhead(traced, plain []float64) {
	v := 0.0
	if len(traced) > 0 && len(plain) > 0 {
		v = 100 * (median(traced)/median(plain) - 1)
	}
	r.setLayer("trace.overhead_pct", v, "%")
}

// opsGC sums the collector's work over the operations.
func opsGC(ops []opStat) gcSample {
	var g gcSample
	for _, o := range ops {
		g = g.plus(o.gc)
	}
	return g
}

// opLatencies splits the operations' latencies by tracing.
func opLatencies(ops []opStat) (traced, plain []float64) {
	for _, o := range ops {
		if o.traced {
			traced = append(traced, o.lat.Seconds())
		} else {
			plain = append(plain, o.lat.Seconds())
		}
	}
	return traced, plain
}
