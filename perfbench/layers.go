package main

import (
	"fmt"
	"sync"
	"time"

	"gossip/internal/gossip"
	"gossip/internal/graph"
	"gossip/internal/server/api"
	"gossip/internal/sim"
)

// distShards is the shard count of the in-process sharded runs the
// traced benchmark makes, the same as the fleet workload's jobs.
const distShards = 2

// distLayer is what one sharded in-process run tells about the
// distributed engine and the shard frame codec.
type distLayer struct {
	wall                   time.Duration // DispatchLocalSharded wall time
	computeS, waitS        float64       // maximum over shards
	barriers, crossIntents int64         // maximum over shards
	frameBytes, frames     int64         // codec run: bytes encoded, frames encoded
	codec                  time.Duration // codec run: encode+decode time
	localResult            gossip.DriverResult
}

// measureDist runs the job twice through the distributed engine: once
// with gossip.DispatchLocalSharded for the per-shard compute and wait
// accounting, and once with sim.RunDist over an exchanger that encodes
// and decodes every frame with the shard wire codec, for frame sizes
// and codec time. Both runs must agree with each other.
func measureDist(tr *tracer, op int64, name string, g *graph.Graph, opts gossip.DriverOptions) (distLayer, error) {
	var dl distLayer
	var stats []sim.DistStats
	var err error
	t0 := time.Now()
	tr.around("gossip.DispatchLocalSharded", op, -1, func() {
		dl.localResult, stats, err = gossip.DispatchLocalSharded(name, g, opts, distShards)
	})
	dl.wall = time.Since(t0)
	if err != nil {
		return dl, fmt.Errorf("sharded in-process run: %w", err)
	}
	for _, s := range stats {
		dl.computeS = max(dl.computeS, float64(s.ComputeNS)/1e9)
		dl.waitS = max(dl.waitS, float64(s.WaitNS)/1e9)
		dl.barriers = max(dl.barriers, s.Barriers)
		dl.crossIntents = max(dl.crossIntents, s.CrossIntents)
	}

	parent := tr.begin("sim.RunDist+codec", op, -1)
	res, exs, err := runCodecDist(tr, op, parent, name, g, opts)
	tr.end(parent)
	if err != nil {
		return dl, fmt.Errorf("sharded run over the frame codec: %w", err)
	}
	for _, ex := range exs {
		dl.frameBytes += ex.bytes
		dl.frames += ex.frames
		dl.codec += ex.codec
	}
	if res.Rounds != dl.localResult.Rounds || res.Exchanges != dl.localResult.Exchanges {
		return dl, fmt.Errorf("codec run gave %d rounds / %d exchanges, local sharded run %d / %d",
			res.Rounds, res.Exchanges, dl.localResult.Rounds, dl.localResult.Exchanges)
	}
	return dl, nil
}

// runCodecDist runs one sharded job with every worker's frames passed
// through a codecExchange in front of the shared in-memory hub.
func runCodecDist(tr *tracer, op int64, parent int32, name string, g *graph.Graph, opts gossip.DriverOptions) (sim.Result, []*codecExchange, error) {
	var cfg sim.Config
	var factory sim.Factory
	var stop sim.StopFunc
	var err error
	tr.around("gossip.PrepareDist", op, parent, func() {
		cfg, factory, stop, err = gossip.PrepareDist(name, g, opts)
	})
	if err != nil {
		return sim.Result{}, nil, err
	}
	hub := sim.NewLocalExchange(distShards)
	exs := make([]*codecExchange, distShards)
	results := make([]sim.Result, distShards)
	errs := make([]error, distShards)
	var wg sync.WaitGroup
	for i := range exs {
		exs[i] = &codecExchange{inner: hub, tr: tr, op: op, parent: parent}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := tr.begin("sim.RunDist", op, parent)
			results[i], errs[i] = sim.RunDist(cfg, sim.DistConfig{Shard: i, Shards: distShards, Exchanger: exs[i]}, factory, stop)
			tr.end(id)
			if errs[i] != nil {
				// Release the peers blocked at the barrier.
				if a, ok := hub.(interface{ Abort(error) }); ok {
					a.Abort(errs[i])
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return sim.Result{}, exs, err
		}
	}
	res, err := sim.MergeDistResults(results)
	return res, exs, err
}

// codecExchange is a sim.Exchanger that sends every outgoing frame
// through the shard wire codec (encode, then decode into a fresh frame)
// before the inner exchanger sees it, counting bytes and codec time.
// Decoded frames are double-buffered like the engine's own, which is
// what the Exchanger aliasing contract asks of a frame passed in.
type codecExchange struct {
	inner  sim.Exchanger
	tr     *tracer
	op     int64
	parent int32

	buf    []byte
	f      [2]sim.DistFrame
	m      [2]sim.DistMetaFrame
	fi, mi int

	bytes, frames int64
	codec         time.Duration
}

func (c *codecExchange) ExchangeFrames(f *sim.DistFrame) ([]*sim.DistFrame, error) {
	dst := &c.f[c.fi]
	c.fi ^= 1
	var err error
	t0 := time.Now()
	c.tr.around("api.RoundFrameCodec", c.op, c.parent, func() {
		c.buf = api.AppendRoundFrame(c.buf[:0], f)
		err = api.DecodeRoundFrame(c.buf, dst)
	})
	c.codec += time.Since(t0)
	c.bytes += int64(len(c.buf))
	c.frames++
	if err != nil {
		return nil, err
	}
	return c.inner.ExchangeFrames(dst)
}

func (c *codecExchange) ExchangeMetas(f *sim.DistMetaFrame) ([]*sim.DistMetaFrame, error) {
	dst := &c.m[c.mi]
	c.mi ^= 1
	var err error
	t0 := time.Now()
	c.tr.around("api.MetaFrameCodec", c.op, c.parent, func() {
		c.buf = api.AppendMetaFrame(c.buf[:0], f)
		err = api.DecodeMetaFrame(c.buf, dst)
	})
	c.codec += time.Since(t0)
	c.bytes += int64(len(c.buf))
	c.frames++
	if err != nil {
		return nil, err
	}
	return c.inner.ExchangeMetas(dst)
}

// setDistLayers records the dist.* and api.* per-layer metrics as the
// medians over the measured sharded runs.
func (r *run) setDistLayers(dls []distLayer) {
	var compute, wait, barriers, cross, fbytes, codec []float64
	for _, d := range dls {
		compute = append(compute, d.computeS)
		wait = append(wait, d.waitS)
		barriers = append(barriers, float64(d.barriers))
		cross = append(cross, float64(d.crossIntents))
		if d.frames > 0 {
			fbytes = append(fbytes, float64(d.frameBytes)/float64(d.frames))
		}
		codec = append(codec, d.codec.Seconds())
	}
	r.setLayer("dist.compute_s", zeroIfNaN(median(compute)), "s")
	r.setLayer("dist.wait_s", zeroIfNaN(median(wait)), "s")
	r.setLayer("dist.barriers", zeroIfNaN(median(barriers)), "count")
	r.setLayer("dist.cross_intents", zeroIfNaN(median(cross)), "count")
	r.setLayer("api.frame_bytes", zeroIfNaN(median(fbytes)), "B")
	r.setLayer("api.frame_codec_s", zeroIfNaN(median(codec)), "s")
}

func zeroIfNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
