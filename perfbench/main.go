// Command perfbench is the repository benchmark: one process runs one
// named workload for a fixed time, checks every output against a
// computation made apart from the program, and prints one JSON line
// with the operations attempted and failed and the workload's metrics.
//
//	perfbench --workload engine-pushpull --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, derived from spans the
// benchmark records around its own calls into each layer, and the
// spans are written to .bench_build/trace/ when the run ends. See
// README.md for the workloads, the metrics and the reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// processStart stands in for the moment the process started: package
// initialisation runs before main, a few milliseconds after exec.
var processStart = time.Now()

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line the benchmark prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload runs one workload against r. An error means the workload
// could not be set up or measured at all; a failed operation is
// recorded in r instead.
type workload func(r *run) error

var workloads = map[string]workload{
	"engine-pushpull": func(r *run) error { return runEnginePushPull(r, fullEngine) },
	"dtg-slow-bridge": func(r *run) error { return runDTGSlowBridge(r, fullDTG) },
	"fleet-sharded":   func(r *run) error { return runFleetSharded(r, fullFleet) },
	"service-mix":     func(r *run) error { return runServiceMix(r, fullService) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	r := newRun(*seed, time.Duration(*seconds)*time.Second, *trace == 1, os.Stdout)
	if err := w(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if r.tr != nil {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := r.tr.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "trace: %d spans written to %s\n", r.tr.len(), path)
	}
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run is the state of one benchmark process: the workload seed and run
// length, the operation tally, and the metrics gathered so far.
type run struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer // nil: untraced run
	log     io.Writer

	attempted, failed int
	// broken is set by a check that covers the run as a whole rather
	// than one operation; it makes the run incorrect.
	broken []string

	e2e   map[string]metric
	layer map[string]metric
	rssMB float64 // peak resident set when the timed phase ended
}

func newRun(seed uint64, seconds time.Duration, traced bool, log io.Writer) *run {
	r := &run{seed: seed, seconds: seconds, log: log,
		e2e: map[string]metric{}, layer: map[string]metric{}}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// fail records a failed operation and names it in the output.
func (r *run) fail(op string, err error) {
	r.failed++
	fmt.Fprintf(r.log, "FAILED %s: %v\n", op, err)
}

// breakRun records a failed run-level check.
func (r *run) breakRun(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.broken = append(r.broken, msg)
	fmt.Fprintf(r.log, "BROKEN %s\n", msg)
}

func (r *run) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// print writes the result line: the end-to-end metrics of an untraced
// run, or the per-layer metrics of a traced one.
func (r *run) print(w io.Writer) error {
	if r.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	r.setE2E("peak_rss_mb", r.rssMB, "MB")
	ms := r.e2e
	if r.tr != nil {
		ms = r.layer
	}
	line, err := json.Marshal(output{
		Correct:   len(r.broken) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   ms,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
