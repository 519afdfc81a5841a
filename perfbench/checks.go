package main

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"

	"gossip/internal/graph"
	"gossip/internal/server/api"
)

// The checks in this file judge the program's outputs against facts the
// benchmark derives itself — shortest-path distances, the adjacency
// lists, an independent serial run, byte equality of replays — never
// against a stored copy of an earlier output.

// distances returns the latency-weighted shortest-path distance from
// src to every node of c (Dijkstra; -1 for an unreachable node).
func distances(c *graph.CSR, src int) []int64 {
	dist := make([]int64, c.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	pq := &distHeap{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.u] {
			continue
		}
		lats := c.Latencies(it.u)
		for i, v := range c.NeighborIDs(it.u) {
			nd := it.d + int64(lats[i])
			if dist[v] < 0 || nd < dist[v] {
				dist[v] = nd
				heap.Push(pq, distItem{int(v), nd})
			}
		}
	}
	return dist
}

type distItem struct {
	u int
	d int64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// checkBroadcast checks a one-to-all run: it completed, every exchange
// carried two messages, and no node was informed before the rumor could
// have reached it along the fastest path. It returns how many nodes sit
// exactly at that bound.
func checkBroadcast(completed bool, exchanges, messages int64, informedAt []int, dist []int64) (tight int, err error) {
	if !completed {
		return 0, fmt.Errorf("run did not complete")
	}
	if messages != 2*exchanges {
		return 0, fmt.Errorf("messages %d != 2 x exchanges %d", messages, exchanges)
	}
	if len(informedAt) != len(dist) {
		return 0, fmt.Errorf("informed_at has %d entries for %d nodes", len(informedAt), len(dist))
	}
	for u, at := range informedAt {
		if at < 0 {
			return 0, fmt.Errorf("node %d never informed", u)
		}
		if int64(at) < dist[u] {
			return 0, fmt.Errorf("node %d informed at round %d, before its distance %d from the source", u, at, dist[u])
		}
		if int64(at) == dist[u] {
			tight++
		}
	}
	return tight, nil
}

// checkLocalBroadcast checks a local-broadcast run: every node knows the
// rumor of each of its neighbours, and the run took at least minRounds
// rounds (a rumor cannot cross the slowest edge faster than its
// latency).
func checkLocalBroadcast(c *graph.CSR, knows func(u, rumor int) bool, completed bool, rounds, minRounds int) error {
	if !completed {
		return fmt.Errorf("run did not complete")
	}
	if rounds < minRounds {
		return fmt.Errorf("finished in %d rounds, below the bridge latency %d", rounds, minRounds)
	}
	missing, first := 0, ""
	for u := 0; u < c.N(); u++ {
		for _, v := range c.NeighborIDs(u) {
			if !knows(u, int(v)) {
				if missing == 0 {
					first = fmt.Sprintf("node %d lacks neighbour %d's rumor", u, v)
				}
				missing++
			}
		}
	}
	if missing > 0 {
		return fmt.Errorf("%d neighbour rumors missing (%s)", missing, first)
	}
	return nil
}

// shardCounters are the fleet's shard counters summed over members.
type shardCounters struct{ jobs, sessions, failures int64 }

// checkSharded checks that one job really ran sharded: one more
// coordinated job, one more worker session per shard, no failure. A
// job that fell back to local execution moves none of them.
func checkSharded(before, after shardCounters, shards int) error {
	if after.failures != before.failures {
		return fmt.Errorf("%d shard failures", after.failures-before.failures)
	}
	if after.jobs != before.jobs+1 {
		return fmt.Errorf("shard jobs rose by %d, want 1: the job did not run sharded", after.jobs-before.jobs)
	}
	if after.sessions != before.sessions+int64(shards) {
		return fmt.Errorf("shard sessions rose by %d, want %d", after.sessions-before.sessions, shards)
	}
	return nil
}

// stream is a parsed /v1 NDJSON response.
type stream struct {
	events []api.Event
}

// last is the terminating event.
func (s *stream) last() api.Event { return s.events[len(s.events)-1] }

// parseStream checks the shape every /v1 stream must have: schema
// version on every line, accepted first, and a result, sweep_result or
// estimate event last, with no error event anywhere.
func parseStream(body []byte) (*stream, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<22)
	s := &stream{}
	for sc.Scan() {
		var ev api.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("line %d: %w", len(s.events), err)
		}
		if ev.SchemaVersion != api.SchemaVersion {
			return nil, fmt.Errorf("line %d: schema_version %d, want %d", len(s.events), ev.SchemaVersion, api.SchemaVersion)
		}
		if ev.Event == "error" {
			return nil, fmt.Errorf("error event: %v", ev.Error)
		}
		s.events = append(s.events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(s.events) == 0 || s.events[0].Event != "accepted" || s.events[0].RequestKey == "" {
		return nil, fmt.Errorf("stream does not open with an accepted event")
	}
	switch last := s.last(); last.Event {
	case "result":
		if last.Result == nil {
			return nil, fmt.Errorf("result event without a result")
		}
	case "sweep_result", "estimate":
	default:
		return nil, fmt.Errorf("stream ends with %q, want result, sweep_result or estimate", last.Event)
	}
	return s, nil
}

// sameResult compares a streamed result with one computed in-process.
func sameResult(got, want api.JobResult) error {
	if got != want {
		return fmt.Errorf("result %+v, in-process run gives %+v", got, want)
	}
	return nil
}

// variantResult returns the result event of sweep variant i.
func variantResult(s *stream, i int) (api.JobResult, error) {
	in := false
	for _, ev := range s.events {
		switch {
		case ev.Event == "variant":
			in = ev.Index == i
		case in && ev.Event == "result" && ev.Result != nil:
			return *ev.Result, nil
		}
	}
	return api.JobResult{}, fmt.Errorf("sweep stream has no result for variant %d", i)
}

// checkEstimate checks an estimate whose reference was simulated with a
// fault schedule that sits on the search lattice: the search must find
// it again, with a best score of exactly 0.
func checkEstimate(s *stream) (candidates int, err error) {
	last := s.last()
	if last.Event != "estimate" || last.Best == nil {
		return 0, fmt.Errorf("estimate stream ends with %q", last.Event)
	}
	if last.Score == nil {
		return 0, fmt.Errorf("estimate event without a score")
	}
	if *last.Score != 0 {
		return 0, fmt.Errorf("best score %v for a planted lattice point, want 0", *last.Score)
	}
	return last.Candidates, nil
}

// checkReplay checks that a replayed body is byte-identical to the
// first body served for its key.
func checkReplay(first, replay []byte) error {
	if !bytes.Equal(first, replay) {
		i := 0
		for i < len(first) && i < len(replay) && first[i] == replay[i] {
			i++
		}
		return fmt.Errorf("replay differs from the first body at byte %d (%d vs %d bytes)", i, len(replay), len(first))
	}
	return nil
}
