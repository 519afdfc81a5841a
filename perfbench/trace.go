package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// maxSpans bounds the spans kept in memory and written out. The frame
// codec calls of one long sharded run alone can exceed it; past the
// bound spans are counted as dropped, and the layer counters still see
// every call.
const maxSpans = 100_000

// span is one call from the benchmark into a layer of the program.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1: a root span
	Op     int64  `json:"op"`     // the operation it served; -1 outside the timed phase
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once, when the run
// ends. A nil tracer, or one switched off, records nothing; every
// method is safe to call on nil.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	on      bool
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), on: true} }

// setOn switches recording on or off.
func (t *tracer) setOn(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span and returns its id (-1 when nothing is recorded).
func (t *tracer) begin(name string, op int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// around records fn as one span.
func (t *tracer) around(name string, op int64, parent int32, fn func()) {
	id := t.begin(name, op, parent)
	fn()
	t.end(id)
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerTime sums a span name's count, total time and self time: a
// span's duration minus the part of it its child spans cover.
type layerTime struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// summary aggregates the closed spans by name.
func summary(spans []span) map[string]layerTime {
	children := map[int32][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		self := dur - covered(children[s.ID], s.Start, s.End)
		lt := out[s.Name]
		lt.Count++
		lt.TotalS += float64(dur) / 1e9
		lt.SelfS += float64(self) / 1e9
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi]. Children of one span may overlap when they ran on several
// goroutines.
func covered(iv [][2]int64, lo, hi int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeFile writes every span plus the per-name summary as one JSON
// document.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Spans   []span               `json:"spans"`
		Dropped int64                `json:"dropped"`
		Summary map[string]layerTime `json:"summary"`
	}{t.spans, t.dropped, summary(t.spans)}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
