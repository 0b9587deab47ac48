// Command perfbench is the repository's benchmark. It drives the
// simulator only through the public wavescalar API, in one of three
// seeded workloads:
//
//   - sim-long: a fixed list of small-scale cells, each through
//     WorkloadByName(...).Build, BuildProcessor and Processor.Run;
//   - sweep-cold: repeated cold Explorer.Sweep calls over a seeded,
//     cluster-stratified sample of ViableDesigns;
//   - serve-mix: an in-process NewServer on a loopback listener under a
//     closed loop of two keep-alive clients posting /v1/runs.
//
// Every workload checks its outputs (pinned digests, or cache-key and
// byte-identity checks for the server) and prints, as the last line of
// standard output, one JSON object with the end-to-end metrics (-trace 0)
// or the per-layer metrics of a traced run (-trace 1). See README.md.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload sim-long --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	ws "wavescalar"
)

// procStart approximates process start: package initialisation of the
// main package, after the runtime and the imported packages.
var procStart = time.Now()

// setupReps is how many times each workload performs its set-up; the
// median is reported as setup_s, so one slow set-up does not move it.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload prints with -trace 0. Each is
// defined for every workload (see README.md for the per-workload
// definition of a "run").
var endToEnd = []metricDef{
	{"sim_cycles_per_s", "cycles/s"},
	{"sweep_cells_per_s", "cells/s"},
	{"runs_per_s", "runs/s"},
	{"run_p50_ms", "ms"},
	{"run_p99_ms", "ms"},
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
}

// perLayer lists the metrics every traced run prints. A layer a workload
// does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.build_ms", "ms"},
		{"sim.new_ms", "ms"},
		{"sim.new_allocs", "count"},
		{"sim.run_ms", "ms"},
		{"sim.run_share", "ratio"},
		{"sim.construct_share", "ratio"},
		{"sim.ns_per_cycle", "ns"},
		{"sim.ns_per_inst", "ns"},
		{"sim.ns_per_input_attempt", "ns"},
		{"sim.input_useful_frac", "ratio"},
		{"sim.allocs_per_kcycle", "count"},
	}
	for _, c := range simLongCells {
		defs = append(defs, metricDef{"cell." + c.name() + ".cycles_per_s", "cycles/s"})
	}
	for _, n := range []string{
		"match.matches", "match.krejects", "match.overflow_hits", "sim.input_rejects",
		"istore.misses", "storebuf.issued", "cache.accesses", "cache.l1_misses",
		"noc.messages", "noc.inter_cluster",
		"explore.cells_simulated", "explore.cells_failed", "explore.sim_cycles",
		"explore.cache_misses",
	} {
		defs = append(defs, metricDef{n, "count"})
	}
	return append(defs,
		metricDef{"explore.journal_bytes", "B"},
		metricDef{"explore.overhead_ms", "ms"},
		metricDef{"server.sims", "count"},
		metricDef{"server.cache_hits", "count"},
		metricDef{"server.admission_rejected", "count"},
		metricDef{"server.singleflight_shared", "count"},
		metricDef{"server.miss_overhead_ms", "ms"},
		metricDef{"server.hit_share", "ratio"},
		metricDef{"client.connections", "count"},
		metricDef{"run_hit_p50_ms", "ms"},
		metricDef{"run_miss_p50_ms", "ms"},
		metricDef{"failed_frac", "ratio"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

// options are the inputs every workload receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	workdir string
	pins    *pinSet
	notes   io.Writer
}

// report is what a workload returns: raw metric values keyed by name
// (units come from endToEnd/perLayer), start-up and set-up durations
// (setup_s is the start-up plus the median set-up), operation counts
// and every output-check failure.
type report struct {
	values     map[string]float64
	startup    time.Duration
	setups     []time.Duration
	attempted  int64
	failed     int64
	mismatches []string
	spans      *recorder
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

type workloadFunc func(ctx context.Context, o options) (*report, error)

var workloads = map[string]workloadFunc{
	"sim-long":   runSimLong,
	"sweep-cold": runSweepCold,
	"serve-mix":  runServeMix,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sim-long, sweep-cold or serve-mix")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	workdir := fs.String("workdir", ".bench_build", "directory for journals, spans and temporary files")
	cpuprofile := fs.String("cpuprofile", "", "traced run: write a CPU profile of the whole run to this file")
	pinOut := fs.String("pin", "", "recompute every pinned output and write the pin file to this path, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pinOut != "" {
		if err := writePins(*pinOut, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench: pin:", err)
			return 1
		}
		return 0
	}
	run, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload sim-long|sweep-cold|serve-mix, -trace 0|1 and positive -seconds\n")
		return 2
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "perfbench: cpuprofile:", err)
			}
		}()
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir, pins: pins, notes: stdout}
	rep, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if o.trace {
		path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := rep.spans.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans: %d written to %s\n", rep.spans.len(), path)
	}
	res, err := finish(rep, o.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, m := range rep.mismatches {
		fmt.Fprintln(stderr, "perfbench: output check failed:", m)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// finish turns a report into the printed result, checking it carries
// exactly the metrics of its mode.
func finish(rep *report, traced bool) (result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
		if rep.attempted > 0 {
			rep.values["failed_frac"] = float64(rep.failed) / float64(rep.attempted)
		}
	} else {
		rep.values["setup_s"] = rep.startup.Seconds() + median(durationsSeconds(rep.setups))
	}
	res := result{
		Correct:   len(rep.mismatches) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && !traced {
			return result{}, fmt.Errorf("workload reported no %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return result{}, errors.New("no operation attempted")
	}
	return res, nil
}

// setupFunc performs one complete set-up and returns a release function
// for it (nil when there is nothing to release).
type setupFunc func() (release func(), err error)

// repeatSetup runs fn setupReps times, timing each and releasing all but
// the last, and records the durations and the start-up before the first.
func repeatSetup(rep *report, fn setupFunc) error {
	rep.startup = time.Since(procStart)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		release, err := fn()
		if err != nil {
			return err
		}
		rep.setups = append(rep.setups, time.Since(start))
		if i < setupReps-1 && release != nil {
			release()
		}
	}
	return nil
}

// warmUp runs every sim-long workload once at tiny scale, so lazy runtime
// set-up (heap growth, first-use code paths) is paid before timing starts.
func warmUp() error {
	for _, c := range simLongCells {
		if _, err := ws.RunWorkloadContext(context.Background(), c.app,
			ws.AtScale(ws.ScaleTiny), ws.WithThreads(1)); err != nil {
			return err
		}
	}
	return nil
}

// heapSampler records the peak live heap (as marked by the latest GC)
// in each window of the timed part; a window ends at each mark call, or
// every period when one is given. The reported figure is the median
// window peak, so one collection landing at an unlucky moment does not
// move it. The live heap, unlike heap in use, does not depend on where in
// its cycle the collector was when sampled.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peak  uint64
	peaks []float64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var window <-chan time.Time
		if period > 0 {
			t := time.NewTicker(period)
			defer t.Stop()
			window = t.C
		}
		for {
			metrics.Read(sample)
			h.mu.Lock()
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-window:
				h.mark()
			case <-tick.C:
			}
		}
	}()
	return h
}

// mark ends the current window.
func (h *heapSampler) mark() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.peak > 0 {
		h.peaks = append(h.peaks, float64(h.peak)/(1<<20))
	}
	h.peak = 0
}

// medianPeakMB stops the sampler, waits for it and returns the median
// window peak in MiB.
func (h *heapSampler) medianPeakMB() float64 {
	close(h.stop)
	<-h.done
	h.mark()
	return median(h.peaks)
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailQuantile is the highest quantile, up to 0.99, with at least ten
// samples beyond it; below 20 samples it falls back to the median.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	return math.Max(0.5, math.Min(0.99, q))
}

// latencies summarises run latencies in milliseconds into run_p50_ms and
// run_p99_ms, and notes which percentile the tail is and over how many
// samples.
func latencies(rep *report, w io.Writer, ms []float64) {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	q := tailQuantile(len(s))
	rep.values["run_p50_ms"] = quantile(s, 0.5)
	rep.values["run_p99_ms"] = quantile(s, q)
	fmt.Fprintf(w, "# run_p99_ms is p%.1f of %d runs\n", 100*q, len(s))
}

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// recorder keeps spans in memory for the traced run and writes them out
// at the end. A nil recorder records nothing.
type recorder struct {
	mu    sync.Mutex
	base  time.Time
	next  int64
	spans []span
}

// span is one timed call into a layer. Op groups the spans of one
// operation (one cell, one sweep, one request); Parent is the span that
// caused it (0 for none). Counters holds the counts the call returned.
type span struct {
	ID       int64             `json:"id"`
	Parent   int64             `json:"parent"`
	Op       int64             `json:"op"`
	Name     string            `json:"name"`
	StartNS  int64             `json:"start_ns"`
	EndNS    int64             `json:"end_ns"`
	Counters map[string]uint64 `json:"counters,omitempty"`
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// id reserves a span id, so a parent can be named before it ends.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

func (r *recorder) add(id, parent, op int64, name string, start, end time.Time, counters map[string]uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartNS: start.Sub(r.base).Nanoseconds(), EndNS: end.Sub(r.base).Nanoseconds(),
		Counters: counters,
	})
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) write(path string) error {
	if r == nil {
		r = newRecorder()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// nproc is the host's processor count, the parallelism sweep-cold uses
// and the ceiling on serve-mix client connections.
func nproc() int { return runtime.NumCPU() }
