package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/loadgen"
	"gossip/internal/server"
	"gossip/internal/server/api"
)

var (
	tinyEngine  = engineSizes{n: 1 << 10, perRound: 2, maxRounds: 1 << 10}
	tinyDTG     = engineSizes{n: 1 << 10, bridge: 64, perRound: 2}
	tinyFleet   = fleetSizes{n: 1 << 11, perRound: 2, members: 3, shards: 2}
	tinyService = serviceSizes{clients: 2, hot: 6, hits: 6, misses: 3, sweeps: 1, estimates: 1,
		sampleRounds: 2, distSample: 2, stretch: 2}
)

// declaredMetrics reads the metric names BENCHMARK.json promises.
func declaredMetrics(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench map[string]json.RawMessage
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(bench[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	return names
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, and checks the result line: no failed operation, and exactly
// the metrics BENCHMARK.json declares for the mode.
func TestWorkloadsSmoke(t *testing.T) {
	tiny := map[string]workload{
		"engine-pushpull": func(r *run) error { return runEnginePushPull(r, tinyEngine) },
		"dtg-slow-bridge": func(r *run) error { return runDTGSlowBridge(r, tinyDTG) },
		"fleet-sharded":   func(r *run) error { return runFleetSharded(r, tinyFleet) },
		"service-mix":     func(r *run) error { return runServiceMix(r, tinyService) },
	}
	if len(tiny) != len(workloads) {
		t.Fatalf("smoke covers %d workloads, the benchmark has %d", len(tiny), len(workloads))
	}
	for name, w := range tiny {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				var log bytes.Buffer
				r := newRun(3, 50*time.Millisecond, traced, &log)
				if err := w(r); err != nil {
					t.Fatal(err)
				}
				var line bytes.Buffer
				if err := r.print(&line); err != nil {
					t.Fatal(err)
				}
				var out output
				if err := json.Unmarshal(line.Bytes(), &out); err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("result %s\nlog:\n%s", line.Bytes(), log.String())
				}
				key := map[bool]string{false: "end_to_end", true: "per_layer"}[traced]
				want := declaredMetrics(t, key)
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(out.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := out.Metrics[m]
					if !ok {
						t.Errorf("metric %s missing", m)
					} else if !traced && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", m, v.Value)
					}
				}
			})
		}
	}
}

func ringCSR(t *testing.T) *graph.CSR {
	t.Helper()
	c, err := graphgen.SlowBridgeRingCSR(64, 9)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCheckBroadcastRejectsEarlyInform(t *testing.T) {
	c := ringCSR(t)
	dist := distances(c, 0)
	informed := make([]int, c.N())
	for u := range informed {
		informed[u] = int(dist[u]) + 1
	}
	informed[0] = 0
	if _, err := checkBroadcast(true, 10, 20, informed, dist); err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}
	far := 0
	for u := range dist {
		if dist[u] > dist[far] {
			far = u
		}
	}
	informed[far] = int(dist[far]) - 1
	if _, err := checkBroadcast(true, 10, 20, informed, dist); err == nil {
		t.Fatal("InformedAt below the distance from the source was accepted")
	}
}

func TestDistancesCrossTheSlowBridge(t *testing.T) {
	c := ringCSR(t) // two 32-node rings; nodes 0 and 32 joined by latency 9
	d := distances(c, 0)
	if d[32] != 9 || d[33] != 10 || d[16] != 16 {
		t.Fatalf("distances %d %d %d, want 9 10 16", d[32], d[33], d[16])
	}
}

func TestCheckLocalBroadcastRejectsMissingRumor(t *testing.T) {
	c := ringCSR(t)
	all := func(u, rumor int) bool { return true }
	if err := checkLocalBroadcast(c, all, true, 9, 9); err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}
	dropped := func(u, rumor int) bool { return !(u == 5 && rumor == 6) }
	if err := checkLocalBroadcast(c, dropped, true, 9, 9); err == nil {
		t.Fatal("a dropped neighbour rumor was accepted")
	}
	if err := checkLocalBroadcast(c, all, true, 8, 9); err == nil {
		t.Fatal("a run shorter than the bridge latency was accepted")
	}
}

func TestCheckReplayRejectsFlippedByte(t *testing.T) {
	first := []byte(`{"schema_version":2,"event":"result","result":{"rounds":7}}` + "\n")
	if err := checkReplay(first, bytes.Clone(first)); err != nil {
		t.Fatalf("identical replay rejected: %v", err)
	}
	flipped := bytes.Clone(first)
	flipped[len(flipped)/2] ^= 1
	if err := checkReplay(first, flipped); err == nil {
		t.Fatal("a replay with a flipped byte was accepted")
	}
}

// TestCheckShardedRejectsLocalFallback posts the fleet workload's job
// without shards, so it runs on one member the way a silent fallback
// would; the counter check must reject it.
func TestCheckShardedRejectsLocalFallback(t *testing.T) {
	fleet, err := loadgen.StartFleet(3, server.Config{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	client := newClient(1)
	url := fleet.URLs()[0] + "/v1/simulations"
	spec := api.JobSpec{Driver: "push-pull", Graph: api.GraphSpec{Family: "regular", N: 512}, Seed: 5, Shards: 2}
	for _, shards := range []int{2, 0} {
		spec.Shards = shards
		before := fleetCounters(fleet)
		status, _, body, err := post(context.Background(), client, url, mustJSON(spec))
		if err != nil || status != http.StatusOK {
			t.Fatalf("status %d err %v: %s", status, err, body)
		}
		err = checkSharded(before, fleetCounters(fleet), 2)
		if shards == 2 && err != nil {
			t.Fatalf("sharded job rejected: %v", err)
		}
		if shards == 0 && err == nil {
			t.Fatal("a job that ran locally passed the sharded check")
		}
	}
}

func TestCheckEstimateRejectsNonZeroScore(t *testing.T) {
	zero, half := 0.0, 0.5
	mk := func(score *float64) *stream {
		return &stream{events: []api.Event{
			{Event: "accepted", RequestKey: "k"},
			{Event: "estimate", Best: &api.EstimateCandidate{Loss: 0.2}, Score: score, Candidates: 9},
		}}
	}
	if n, err := checkEstimate(mk(&zero)); err != nil || n != 9 {
		t.Fatalf("planted estimate rejected: %d %v", n, err)
	}
	if _, err := checkEstimate(mk(&half)); err == nil {
		t.Fatal("a non-zero best score was accepted")
	}
}

func TestParseStreamRejectsErrorsAndTruncation(t *testing.T) {
	ok := "{\"schema_version\":2,\"event\":\"accepted\",\"request_key\":\"k\"}\n" +
		"{\"schema_version\":2,\"event\":\"result\",\"result\":{\"rounds\":3}}\n"
	if _, err := parseStream([]byte(ok)); err != nil {
		t.Fatal(err)
	}
	bad := []string{
		strings.SplitAfter(ok, "\n")[0],
		ok + "{\"schema_version\":2,\"event\":\"error\",\"error\":{\"message\":\"x\"}}\n",
		strings.Replace(ok, "\"schema_version\":2", "\"schema_version\":1", 1),
	}
	for _, b := range bad {
		if _, err := parseStream([]byte(b)); err == nil {
			t.Errorf("accepted %q", b)
		}
	}
}

func TestSummarySelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "child", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "child", Start: 30, End: 60},
	}
	s := summary(spans)
	if got := s["op"].SelfS * 1e9; got < 49.5 || got > 50.5 {
		t.Fatalf("op self time %vns, want 50ns (children cover 10..60)", got)
	}
	if s["child"].Count != 2 {
		t.Fatalf("child count %d", s["child"].Count)
	}
}
