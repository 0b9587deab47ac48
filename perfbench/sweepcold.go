package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	ws "wavescalar"
)

// sweepStrata are the cluster counts the design sample is stratified
// over, and sweepPerStratum how many points of each one sweep takes.
var sweepStrata = []int{1, 4, 16}

const sweepPerStratum = 2

// sweepSuites are the suites one sweep takes one app from.
var sweepSuites = []ws.Suite{ws.SuiteSpec, ws.SuiteMedia, ws.SuiteSplash, ws.SuiteTiled}

// sweepThreads are the thread counts every sweep cell tries.
var sweepThreads = []int{1, 4}

// sweepPlan holds a seeded permutation of each stratum's viable designs
// and of each suite's apps. Sweep i walks the permutations cyclically, so
// across a run every design and app is used about equally often and the
// run's cost does not depend on which ones the seed put first.
type sweepPlan struct {
	strata [][]ws.DesignPoint
	suites [][]ws.Workload
}

func newSweepPlan(seed uint64) (*sweepPlan, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5c))
	viable := ws.ViableDesigns()
	p := &sweepPlan{}
	for _, c := range sweepStrata {
		var pts []ws.DesignPoint
		for _, pt := range viable {
			if pt.Arch.Clusters == c {
				pts = append(pts, pt)
			}
		}
		if len(pts) < sweepPerStratum {
			return nil, fmt.Errorf("only %d viable designs with %d clusters", len(pts), c)
		}
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		p.strata = append(p.strata, pts)
	}
	for _, s := range sweepSuites {
		apps := ws.WorkloadsBySuite(s)
		if len(apps) == 0 {
			return nil, fmt.Errorf("suite %v has no workloads", s)
		}
		rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
		p.suites = append(p.suites, apps)
	}
	return p, nil
}

// sample returns sweep i's design points and apps.
func (p *sweepPlan) sample(i int) ([]ws.DesignPoint, []ws.Workload) {
	var pts []ws.DesignPoint
	for _, s := range p.strata {
		for j := 0; j < sweepPerStratum; j++ {
			pts = append(pts, s[(sweepPerStratum*i+j)%len(s)])
		}
	}
	var apps []ws.Workload
	for _, s := range p.suites {
		apps = append(apps, s[i%len(s)])
	}
	return pts, apps
}

// sweepRun is one cold sweep's outcome.
type sweepRun struct {
	wall         time.Duration
	progress     ws.ExploreProgress
	cacheMisses  uint64
	journalBytes int64
	cells        map[string]string // "arch|app" -> canonical cell hash
	sha          string            // canonical sweep-result hash
	err          error             // infrastructure error from Sweep
}

// coldSweep builds a fresh explorer with a new journal in a temporary
// directory, sweeps, closes it and removes the directory. The timed wall
// covers explorer construction through Close.
func coldSweep(ctx context.Context, workdir string, pts []ws.DesignPoint, apps []ws.Workload) (sweepRun, error) {
	var out sweepRun
	dir, err := os.MkdirTemp(workdir, "sweep-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "journal.jsonl")

	start := time.Now()
	exp, err := ws.NewExplorer(
		ws.WithScale(ws.ScaleTiny),
		ws.WithThreadCounts(sweepThreads...),
		ws.WithParallelism(nproc()),
		ws.WithJournal(journal, false),
	)
	if err != nil {
		return out, err
	}
	results, serr := exp.Sweep(ctx, pts, apps)
	out.progress = exp.LastProgress()
	cells := exp.Cache().Cells()
	out.cacheMisses = exp.Cache().Stats().Misses
	cerr := exp.Close()
	out.wall = time.Since(start)
	switch {
	case serr != nil:
		out.err = serr
	case cerr != nil:
		out.err = cerr
	}
	if fi, err := os.Stat(journal); err == nil {
		out.journalBytes = fi.Size()
	}

	byID := make(map[string]ws.ExploreCell, len(cells))
	for _, c := range cells {
		byID[c.Arch+"|"+c.App] = c
	}
	out.cells = make(map[string]string, len(pts)*len(apps))
	for pi, pt := range pts {
		for _, w := range apps {
			id := pt.Arch.String() + "|" + w.Name
			c, ok := byID[id]
			if !ok {
				continue
			}
			r := results[pi]
			if c.Err == "" && (r.AIPC[w.Name] != c.AIPC || r.Threads[w.Name] != c.Threads) {
				// The sweep result disagrees with the cell it was built
				// from; poison the hash so the check fails.
				out.cells[id] = "inconsistent"
				continue
			}
			out.cells[id] = cellHash(c)
		}
	}
	out.sha = sweepSHA(pts, apps, out.cells)
	return out, nil
}

// cellHash is a short hash over everything a sweep cell computed. The
// cache key is left out on purpose: it is an identity, not an output.
func cellHash(c ws.ExploreCell) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%d|%d|%d|%d|%016x|%s",
		c.Arch, c.App, c.Threads, c.Cycles, c.SimCycles, c.Traffic, math.Float64bits(c.AIPC), c.Err)))
	return hex.EncodeToString(h[:])[:16]
}

// sweepSHA is the SHA-256 over a sweep's canonical results: every
// (design point, app) cell hash in sweep order. A missing cell hashes as
// "missing".
func sweepSHA(pts []ws.DesignPoint, apps []ws.Workload, cells map[string]string) string {
	h := sha256.New()
	for _, pt := range pts {
		for _, w := range apps {
			id := pt.Arch.String() + "|" + w.Name
			v, ok := cells[id]
			if !ok {
				v = "missing"
			}
			fmt.Fprintf(h, "%s=%s\n", id, v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkSweep compares a sweep with the pins: every cell with its pinned
// hash and, for the recorded seeds, sweep 0's SHA with the pinned one.
func checkSweep(rep *report, pins *pinSet, seed uint64, i int, pts []ws.DesignPoint, apps []ws.Workload, r sweepRun) {
	want := make(map[string]string, len(r.cells))
	for _, pt := range pts {
		for _, w := range apps {
			id := pt.Arch.String() + "|" + w.Name
			p, ok := pins.SweepCells[id]
			if !ok {
				rep.mismatch("sweep %d: no pin for cell %s", i, id)
				return
			}
			want[id] = p
			if r.cells[id] != p {
				rep.mismatch("sweep %d: cell %s hash %q, pinned %q", i, id, r.cells[id], p)
			}
		}
	}
	if got, exp := r.sha, sweepSHA(pts, apps, want); got != exp {
		rep.mismatch("sweep %d: result sha %s, expected %s from the cell pins", i, got, exp)
	}
	if p, ok := pins.SweepSHA[fmt.Sprint(seed)]; ok && i == 0 && r.sha != p {
		rep.mismatch("sweep 0 of seed %d: result sha %s, pinned %s", seed, r.sha, p)
	}
}

// runSweepCold repeats cold sweeps, each over its own sample of the seeded
// plan, until the measured time is used up.
func runSweepCold(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	tmp := filepath.Join(o.workdir, "tmp")
	var plan *sweepPlan
	err := repeatSetup(rep, func() (func(), error) {
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, err
		}
		p, err := newSweepPlan(o.seed)
		if err != nil {
			return nil, err
		}
		plan = p
		return nil, warmUp()
	})
	if err != nil {
		return nil, err
	}

	next := 0
	// measure sweeps until budget is used (at least one sweep).
	measure := func(budget time.Duration, rec *recorder, heap *heapSampler) ([]sweepRun, error) {
		var runs []sweepRun
		start := time.Now()
		for len(runs) == 0 || time.Since(start) < budget {
			i := next
			next++
			pts, apps := plan.sample(i)
			op := rec.id()
			t0 := time.Now()
			r, err := coldSweep(ctx, tmp, pts, apps)
			if err != nil {
				return nil, err
			}
			rep.attempted++
			if r.err != nil {
				rep.failed++
				rep.mismatch("sweep %d: %v", i, r.err)
			}
			checkSweep(rep, o.pins, o.seed, i, pts, apps, r)
			rec.add(op, 0, op, "explore.sweep", t0, t0.Add(r.wall), map[string]uint64{
				"cells_simulated": uint64(r.progress.Simulated),
				"cells_failed":    uint64(r.progress.Failed),
				"sim_cycles":      r.progress.SimCycles,
			})
			runs = append(runs, r)
			if heap != nil {
				heap.mark()
			}
		}
		return runs, nil
	}
	// Rates are medians over sweeps; the plan cycles through the sample
	// space, so the sweeps of a run cost about the same for every seed.
	perSweep := func(runs []sweepRun, f func(r sweepRun) float64) float64 {
		vs := make([]float64, len(runs))
		for i, r := range runs {
			vs[i] = f(r)
		}
		return median(vs)
	}
	cellRate := func(runs []sweepRun) float64 {
		return perSweep(runs, func(r sweepRun) float64 { return float64(r.progress.Done) / r.wall.Seconds() })
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		heap := startHeapSampler(0)
		runs, err := measure(budget, nil, heap)
		if err != nil {
			return nil, err
		}
		rep.values["heap_peak_mb"] = heap.medianPeakMB()
		var simulated int
		lat := make([]float64, len(runs))
		for i, r := range runs {
			simulated += r.progress.Simulated
			lat[i] = ms(r.wall)
		}
		rep.values["sweep_cells_per_s"] = cellRate(runs)
		// Simulated cycles per cell vary a hundredfold between apps, so this
		// rate pools the run rather than taking one sweep's sample.
		var cycles uint64
		var wall time.Duration
		for _, r := range runs {
			cycles += r.progress.SimCycles
			wall += r.wall
		}
		rep.values["sim_cycles_per_s"] = float64(cycles) / wall.Seconds()
		rep.values["runs_per_s"] = perSweep(runs, func(r sweepRun) float64 { return 1 / r.wall.Seconds() })
		latencies(rep, o.notes, lat)
		fmt.Fprintf(o.notes, "# sweep-cold simulated cells: %d in %d sweeps\n", simulated, len(runs))
		return rep, nil
	}

	plain, err := measure(budget/2, nil, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	rep.spans = rec
	traced, err := measure(budget/2, rec, nil)
	if err != nil {
		return nil, err
	}
	rep.values["trace.overhead_frac"] = cellRate(plain)/cellRate(traced) - 1

	// Explore counts come from the first traced sweep; they repeat
	// exactly for a given seed and sweep index.
	first := traced[0]
	rep.values["explore.cells_simulated"] = float64(first.progress.Simulated)
	rep.values["explore.cells_failed"] = float64(first.progress.Failed)
	rep.values["explore.sim_cycles"] = float64(first.progress.SimCycles)
	rep.values["explore.cache_misses"] = float64(first.cacheMisses)
	rep.values["explore.journal_bytes"] = float64(first.journalBytes)

	// Replay the first traced sweep's cells serially through the public
	// simulation path, as BestThreads would run them, to split the sweep
	// into build, construction and simulation; what the sweep's worker
	// time holds beyond that is explore's own overhead.
	pts, apps := plan.sample(len(plain))
	p := simPass{cellRate: map[string]float64{}, counts: map[string]uint64{}}
	maxThreads := make([]int, len(apps))
	for i, w := range apps {
		maxThreads[i] = w.Build(ws.ScaleTiny).MaxThreads
	}
	for _, pt := range pts {
		for ai, w := range apps {
			for _, t := range sweepThreads {
				if t > maxThreads[ai] {
					continue
				}
				c := simCell{app: w.Name, scale: "tiny", clusters: pt.Arch.Clusters, threads: t}
				cfg := ws.Baseline(pt.Arch)
				op := rec.id()
				start := time.Now()
				r, err := runSimCell(c, cfg, true)
				if err != nil {
					continue // a deterministic cell error; the sweep cached it too
				}
				b1 := start.Add(r.build)
				c1 := b1.Add(r.create)
				rec.add(op, 0, op, "replay "+pt.Arch.String()+" "+c.name(), start, c1.Add(r.run), nil)
				rec.add(rec.id(), op, op, "workload.build", start, b1, nil)
				rec.add(rec.id(), op, op, "sim.new", b1, c1, map[string]uint64{"allocs": r.newAllocs})
				rec.add(rec.id(), op, op, "sim.run", c1, c1.Add(r.run), statCounters(r.stats))
				p.build += r.build
				p.create += r.create
				p.run += r.run
				p.cycles += r.stats.Cycles
				p.dynamic += r.stats.Dynamic
				p.newAllocs += r.newAllocs
				p.runAllocs += r.runAllocs
				addCounts(p.counts, r.stats)
			}
		}
	}
	simLayers(rep, []simPass{p})
	worker := first.wall.Seconds() * float64(nproc())
	rep.values["explore.overhead_ms"] = 1000 * (worker - (p.build + p.create + p.run).Seconds())
	fmt.Fprintf(o.notes, "# construction share of a sweep cell (build + new): %.3f\n", rep.values["sim.construct_share"])
	return rep, nil
}
