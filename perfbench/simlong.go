package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	ws "wavescalar"
)

// simCell is one sim-long cell: a workload at a scale on a machine with
// the given cluster count, run with the given thread count.
type simCell struct {
	app      string
	scale    string
	clusters int
	threads  int
}

func (c simCell) name() string {
	return fmt.Sprintf("%s-%s-c%dt%d", c.app, c.scale, c.clusters, c.threads)
}

// simLongCells mixes the behaviours the simulator's hot path has to
// handle: dense 1-cluster cells (mcf, mpeg2encode), sparse 16-cluster
// cells (radix, lu, water), multithreaded coherence traffic (ocean,
// water), an input-reject storm (mpeg2encode makes ~88 rejected input
// attempts per executed instruction) and a tiled kernel.
var simLongCells = []simCell{
	{"mcf", "small", 1, 1},
	{"mpeg2encode", "small", 1, 1},
	{"radix", "small", 16, 1},
	{"lu", "small", 16, 2},
	{"ocean", "small", 4, 4},
	{"water", "small", 16, 8},
	{"gemm-os-4x4x4", "small", 4, 1},
}

func scaleByName(name string) (ws.Scale, error) {
	switch name {
	case "tiny":
		return ws.ScaleTiny, nil
	case "small":
		return ws.ScaleSmall, nil
	}
	return ws.Scale{}, fmt.Errorf("unknown scale %q", name)
}

// cellRun is one cell's outcome and the host time of each stage.
type cellRun struct {
	stats              *ws.Stats
	build, create, run time.Duration
	newAllocs          uint64
	runAllocs          uint64
}

func (r cellRun) total() time.Duration { return r.build + r.create + r.run }

// runSimCell runs one cell through Build, BuildProcessor and Run. With
// countAllocs it also reads the allocation count around construction and
// simulation (a stop-the-world read, so only the traced run asks).
func runSimCell(c simCell, cfg ws.Config, countAllocs bool) (cellRun, error) {
	var out cellRun
	w, err := ws.WorkloadByName(c.app)
	if err != nil {
		return out, err
	}
	sc, err := scaleByName(c.scale)
	if err != nil {
		return out, err
	}
	var m runtime.MemStats
	mallocs := func() uint64 {
		if !countAllocs {
			return 0
		}
		runtime.ReadMemStats(&m)
		return m.Mallocs
	}
	t0 := time.Now()
	inst := w.Build(sc)
	out.build = time.Since(t0)

	a0 := mallocs()
	t1 := time.Now()
	proc, err := ws.BuildProcessor(inst.Prog, ws.ProcConfig(cfg),
		ws.ProcParams(inst.Params(c.threads)...), ws.ProcMemory(ws.Memory(inst.Mem)))
	out.create = time.Since(t1)
	a1 := mallocs()
	if err != nil {
		return out, fmt.Errorf("%s: %w", c.name(), err)
	}

	t2 := time.Now()
	st, err := proc.Run()
	out.run = time.Since(t2)
	a2 := mallocs()
	if err != nil {
		return out, fmt.Errorf("%s: %w", c.name(), err)
	}
	out.stats, out.newAllocs, out.runAllocs = st, a1-a0, a2-a1
	return out, nil
}

func simCellConfig(c simCell, sched ws.SchedMode) ws.Config {
	arch := ws.BaselineArch()
	arch.Clusters = c.clusters
	cfg := ws.Baseline(arch)
	cfg.Sched = sched
	return cfg
}

// simPass is the per-pass totals the traced run reports.
type simPass struct {
	wall               time.Duration
	build, create, run time.Duration
	cycles, dynamic    uint64
	newAllocs          uint64
	runAllocs          uint64
	cellRate           map[string]float64
	counts             map[string]uint64
}

// simLongState is what sim-long's set-up prepares.
type simLongState struct {
	configs []ws.Config
	rng     *rand.Rand
}

// runSimLong runs the cell list back to back on one goroutine, in a
// seeded order per pass, until the measured time is used up. Every cell's
// Stats digest must equal its pin.
func runSimLong(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	var st simLongState
	err := repeatSetup(rep, func() (func(), error) {
		st = simLongState{rng: rand.New(rand.NewPCG(o.seed, 0x51))}
		for _, c := range simLongCells {
			if _, err := ws.WorkloadByName(c.app); err != nil {
				return nil, err
			}
			if _, ok := o.pins.SimLong[c.name()]; !ok {
				return nil, fmt.Errorf("no pinned digest for %s", c.name())
			}
			st.configs = append(st.configs, simCellConfig(c, ws.SchedActiveSet))
		}
		return nil, warmUp()
	})
	if err != nil {
		return nil, err
	}

	// pass runs the whole list once; rec is nil outside the traced half.
	pass := func(rec *recorder, p *simPass) {
		for _, i := range st.rng.Perm(len(simLongCells)) {
			c := simLongCells[i]
			rep.attempted++
			op := rec.id()
			start := time.Now()
			r, err := runSimCell(c, st.configs[i], rec != nil)
			if err != nil {
				rep.failed++
				rep.mismatch("%v", err)
				continue
			}
			if d := r.stats.Digest(); d != o.pins.SimLong[c.name()] {
				rep.mismatch("%s: stats digest %s, pinned %s", c.name(), d, o.pins.SimLong[c.name()])
			}
			p.build += r.build
			p.create += r.create
			p.run += r.run
			p.cycles += r.stats.Cycles
			p.dynamic += r.stats.Dynamic
			p.newAllocs += r.newAllocs
			p.runAllocs += r.runAllocs
			if rec != nil {
				b0 := start
				b1 := b0.Add(r.build)
				c1 := b1.Add(r.create)
				e := c1.Add(r.run)
				rec.add(op, 0, op, "cell "+c.name(), b0, e, map[string]uint64{"cycles": r.stats.Cycles})
				rec.add(rec.id(), op, op, "workload.build", b0, b1, nil)
				rec.add(rec.id(), op, op, "sim.new", b1, c1, map[string]uint64{"allocs": r.newAllocs})
				rec.add(rec.id(), op, op, "sim.run", c1, e, statCounters(r.stats))
				p.cellRate[c.name()] = float64(r.stats.Cycles) / r.total().Seconds()
				addCounts(p.counts, r.stats)
			}
		}
	}

	// measure runs whole passes until budget is used (at least one).
	measure := func(budget time.Duration, rec *recorder, heap *heapSampler) []simPass {
		var passes []simPass
		start := time.Now()
		for len(passes) == 0 || time.Since(start) < budget {
			p := simPass{cellRate: map[string]float64{}, counts: map[string]uint64{}}
			t0 := time.Now()
			pass(rec, &p)
			p.wall = time.Since(t0)
			passes = append(passes, p)
			if heap != nil {
				heap.mark()
			}
		}
		return passes
	}
	// Rates are medians over passes, each pass being the same work.
	rate := func(passes []simPass) float64 {
		vs := make([]float64, len(passes))
		for i, p := range passes {
			vs[i] = float64(p.cycles) / (p.build + p.create + p.run).Seconds()
		}
		return median(vs)
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		heap := startHeapSampler(0)
		passes := measure(budget, nil, heap)
		rep.values["heap_peak_mb"] = heap.medianPeakMB()
		rep.values["sim_cycles_per_s"] = rate(passes)
		// A run is one pass over the whole list: per-cell latencies would
		// be seven fixed values, whose upper percentiles jump from one
		// cell to the next as the pass count changes.
		walls := make([]float64, len(passes))
		cellRates := make([]float64, len(passes))
		for i, p := range passes {
			walls[i] = ms(p.wall)
			cellRates[i] = float64(len(simLongCells)) / p.wall.Seconds()
		}
		rep.values["sweep_cells_per_s"] = median(cellRates)
		rep.values["runs_per_s"] = 1000 / median(walls)
		latencies(rep, o.notes, walls)
		return rep, nil
	}

	plain := measure(budget/2, nil, nil)
	rec := newRecorder()
	rep.spans = rec
	traced := measure(budget/2, rec, nil)
	rep.values["trace.overhead_frac"] = rate(plain)/rate(traced) - 1
	simLayers(rep, traced)
	for _, c := range simLongCells {
		var rates []float64
		for _, p := range traced {
			if r, ok := p.cellRate[c.name()]; ok {
				rates = append(rates, r)
			}
		}
		if len(rates) > 0 {
			rep.values["cell."+c.name()+".cycles_per_s"] = median(rates)
		}
	}
	fmt.Fprintf(o.notes, "# sim share of host time: %.3f\n", rep.values["sim.run_share"])
	return rep, nil
}

// simLayers fills the sim-layer metrics from traced passes: times are the
// median over passes of per-pass totals, counts are one pass's (they
// repeat exactly).
func simLayers(rep *report, passes []simPass) {
	per := func(f func(p simPass) float64) float64 {
		vs := make([]float64, len(passes))
		for i, p := range passes {
			vs[i] = f(p)
		}
		return median(vs)
	}
	rep.values["workload.build_ms"] = per(func(p simPass) float64 { return ms(p.build) })
	rep.values["sim.new_ms"] = per(func(p simPass) float64 { return ms(p.create) })
	rep.values["sim.run_ms"] = per(func(p simPass) float64 { return ms(p.run) })
	rep.values["sim.run_share"] = per(func(p simPass) float64 {
		return p.run.Seconds() / (p.build + p.create + p.run).Seconds()
	})
	rep.values["sim.construct_share"] = per(func(p simPass) float64 {
		return (p.build + p.create).Seconds() / (p.build + p.create + p.run).Seconds()
	})
	rep.values["sim.ns_per_cycle"] = per(func(p simPass) float64 { return float64(p.run.Nanoseconds()) / float64(p.cycles) })
	rep.values["sim.ns_per_inst"] = per(func(p simPass) float64 { return float64(p.run.Nanoseconds()) / float64(p.dynamic) })
	rep.values["sim.new_allocs"] = float64(passes[0].newAllocs)
	rep.values["sim.allocs_per_kcycle"] = per(func(p simPass) float64 { return float64(p.runAllocs) * 1000 / float64(p.cycles) })

	counts := passes[0].counts
	attempts := float64(counts["match.matches"] + counts["sim.input_rejects"])
	rep.values["sim.ns_per_input_attempt"] = per(func(p simPass) float64 { return float64(p.run.Nanoseconds()) / attempts })
	if attempts > 0 {
		rep.values["sim.input_useful_frac"] = float64(counts["match.matches"]) / attempts
	}
	for name, v := range counts {
		rep.values[name] = float64(v)
	}
}

// statCounters are the layer counts one run's Stats carry.
func statCounters(st *ws.Stats) map[string]uint64 {
	var inter uint64
	for _, v := range st.Traffic[ws.LevelGrid] {
		inter += v
	}
	return map[string]uint64{
		"match.matches":       st.Match.Matches,
		"match.krejects":      st.Match.KRejects,
		"match.overflow_hits": st.Match.OverflowHits,
		"sim.input_rejects":   st.InputRejects,
		"istore.misses":       st.IStoreMisses,
		"storebuf.issued":     st.StoreBuf.IssuedLoads + st.StoreBuf.IssuedStores + st.StoreBuf.IssuedNops,
		"cache.accesses":      st.Cache.Accesses,
		"cache.l1_misses":     st.Cache.L1Misses,
		"noc.messages":        st.Noc.Delivered,
		"noc.inter_cluster":   inter,
	}
}

func addCounts(dst map[string]uint64, st *ws.Stats) {
	for k, v := range statCounters(st) {
		dst[k] += v
	}
}
