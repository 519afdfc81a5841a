package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"gossip/internal/adversity"
	"gossip/internal/gossip"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/server/api"
)

// specGraph is the graph a /v1 job spec names, with the documented
// request defaults applied (latency 1, p 0.3 for er and gadget, 6 ring
// layers) and the job seed as the generator seed.
func specGraph(spec api.JobSpec) graphgen.Spec {
	g := spec.Graph
	out := graphgen.Spec{Family: strings.ToLower(g.Family), N: g.N, Latency: g.Latency, Seed: spec.Seed}
	if out.Latency == 0 {
		out.Latency = 1
	}
	switch out.Family {
	case "er", "gadget":
		out.P = g.P
		if out.P == 0 {
			out.P = 0.3
		}
	case "ring":
		out.Layers = g.Layers
		if out.Layers == 0 {
			out.Layers = 6
		}
	}
	return out
}

// specOptions maps the job spec fields the benchmark sends onto the
// driver options.
func specOptions(spec api.JobSpec) (gossip.DriverOptions, error) {
	opts := gossip.DriverOptions{Seed: spec.Seed, MaxRounds: spec.MaxRounds}
	if spec.KnownLatencies != nil {
		opts.KnownLatencies = *spec.KnownLatencies
	}
	if spec.Source != nil {
		opts.Source = *spec.Source
	}
	if strings.TrimSpace(spec.FaultSpec) != "" {
		adv, err := adversity.ParseSpec(spec.FaultSpec)
		if err != nil {
			return opts, err
		}
		if !adv.Empty() {
			opts.Adversity = adv
		}
	}
	return opts, nil
}

// inProcess is one job spec run directly through graphgen and gossip,
// bypassing the service.
type inProcess struct {
	res         gossip.DriverResult
	g           *graph.Graph
	build, exec time.Duration
	layer       layerJob
	opts        gossip.DriverOptions
	driver      string
}

// runInProcess builds the spec's graph and dispatches its driver, the
// way a user of the packages would without gossipd. A traced run (tr
// not nil) also reads the allocation counters.
func runInProcess(tr *tracer, op int64, spec api.JobSpec) (*inProcess, error) {
	ip := &inProcess{driver: spec.Driver}
	var err error
	t0 := time.Now()
	tr.around("graphgen.Build", op, -1, func() { ip.g, err = graphgen.Build(specGraph(spec)) })
	ip.build = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("building graph: %w", err)
	}
	if ip.opts, err = specOptions(spec); err != nil {
		return nil, err
	}
	ip.res, ip.layer = measureJob(tr != nil, func() (res gossip.DriverResult) {
		tr.around("gossip.Dispatch", op, -1, func() { res, err = gossip.Dispatch(spec.Driver, ip.g, ip.opts) })
		return res
	})
	ip.exec = ip.layer.wall
	if err != nil {
		return nil, err
	}
	return ip, nil
}

// jobResult is the wire form of a driver result.
func jobResult(res gossip.DriverResult) api.JobResult {
	return api.JobResult{
		Rounds: res.Rounds, Completed: res.Completed,
		Exchanges: res.Exchanges, Messages: res.Messages, Dropped: res.Dropped,
		Delivered: res.Delivered, RumorPayload: res.RumorPayload, Winner: res.Winner,
	}
}

// post sends one /v1 request and reads the whole response.
func post(ctx context.Context, c *http.Client, url string, body []byte) (status int, cache string, resp []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	hr, err := c.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer hr.Body.Close()
	resp, err = io.ReadAll(hr.Body)
	return hr.StatusCode, hr.Header.Get(api.CacheHeader), resp, err
}

// waitHealthy polls GET /healthz until the server answers 200.
func waitHealthy(ctx context.Context, c *http.Client, base string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		if hr, err := c.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, hr.Body)
			hr.Body.Close()
			if hr.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s did not become healthy: %w", base, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// newClient returns an HTTP client for at most conns connections to one
// server. Compression is off: bodies are compared byte for byte.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal %T: %v", v, err))
	}
	return b
}
