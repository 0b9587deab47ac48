// Command wsbench measures the simulator's host-side throughput on a
// pinned benchmark matrix and emits a machine-readable report that CI
// compares against the committed baseline (bench/baseline.json).
//
// Every matrix cell runs the workload twice — once under the full-scan
// reference scheduler, once under the active-set scheduler — checks the
// two Stats digests match (the equivalence guarantee, re-proven on every
// bench run), and records:
//
//   - cycles/sec under each scheduler, and their ratio (speedup_vs_scan —
//     host-independent, because both sides ran on the same machine);
//   - allocations per thousand simulated cycles (host-independent: the
//     simulator is deterministic, so the malloc count is too);
//   - sims/sec through the exploration engine (a parallel sweep of tiny
//     cells), capturing end-to-end sweep throughput.
//
// Usage:
//
//	wsbench                                  # full matrix -> <repo root>/BENCH_<rev>.json
//	wsbench -suite splash2 -scale small      # subset of the matrix
//	wsbench -compare bench/baseline.json     # run + regression gate (CI)
//	wsbench -out bench/baseline.json         # refresh the baseline
//
// In -compare mode the exit status is 1 when any gate fails:
//
//   - matrix-wide cycles/sec (geometric mean, host-normalized: the
//     full-scan reference measured in the same process calibrates away
//     runner speed) more than -tolerance below the baseline;
//   - matrix-wide speedup_vs_scan more than -tolerance below baseline;
//   - any single cell more than 2.5×-tolerance below baseline on either
//     metric (backstop for one cell collapsing while the mean holds);
//   - any cell's allocations/kcycle above the baseline by more than 5%
//     plus one (slack for Go-version drift in startup allocations).
//
// It also prints the host factor and the raw (uncalibrated) geomean
// cycles/sec ratio. The full-scan reference runs the same PE pipeline as
// the active set, so a change to that shared core moves both schedulers
// alike and the host-normalized gate cannot see it; the raw ratio can,
// when both reports come from the same host.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"wavescalar"
	"wavescalar/internal/cli"
	"wavescalar/internal/version"
)

// cell is one pinned matrix entry. The matrix spans the three suites,
// two scales and two machine sizes; the 16-cluster cells are the sparse
// configurations the active-set scheduler exists for (a mostly-idle grid
// under the full scan costs O(machine), under the active set O(work)).
type cell struct {
	App      string
	Suite    string
	Scale    string
	Clusters int
	Threads  int
}

var matrix = []cell{
	{App: "mcf", Suite: "spec2000", Scale: "tiny", Clusters: 1, Threads: 1},
	{App: "equake", Suite: "spec2000", Scale: "tiny", Clusters: 16, Threads: 1},
	{App: "djpeg", Suite: "mediabench", Scale: "tiny", Clusters: 1, Threads: 1},
	{App: "rawdaudio", Suite: "mediabench", Scale: "tiny", Clusters: 16, Threads: 1},
	{App: "fft", Suite: "splash2", Scale: "tiny", Clusters: 1, Threads: 1},
	{App: "fft", Suite: "splash2", Scale: "tiny", Clusters: 16, Threads: 1},
	{App: "radix", Suite: "splash2", Scale: "small", Clusters: 16, Threads: 1},
	{App: "lu", Suite: "splash2", Scale: "small", Clusters: 16, Threads: 2},
}

func (c cell) name() string {
	return fmt.Sprintf("%s/%s/c%dt%d", c.App, c.Scale, c.Clusters, c.Threads)
}

// Entry is one measured matrix cell in the report.
type Entry struct {
	Name     string `json:"name"`
	Suite    string `json:"suite"`
	Scale    string `json:"scale"`
	Clusters int    `json:"clusters"`
	Threads  int    `json:"threads"`
	Cycles   uint64 `json:"cycles"`
	// Host-dependent throughput (normalized by the compare gate).
	CyclesPerSec     float64 `json:"cycles_per_sec"`      // active-set scheduler
	ScanCyclesPerSec float64 `json:"scan_cycles_per_sec"` // full-scan reference
	NsPerCycle       float64 `json:"ns_per_cycle"`
	// Host-independent gates.
	SpeedupVsScan   float64 `json:"speedup_vs_scan"`
	AllocsPerKCycle float64 `json:"allocs_per_kcycle"`
	Digest          string  `json:"digest"`
}

// ExploreEntry reports sweep-engine throughput (informational: it scales
// with the runner's core count, so the compare gate does not judge it).
type ExploreEntry struct {
	Cells       int     `json:"cells"`
	SimsPerSec  float64 `json:"sims_per_sec"`
	Parallelism int     `json:"parallelism"`
}

// Report is the BENCH_<rev>.json document.
type Report struct {
	Schema    int          `json:"schema"`
	Revision  string       `json:"revision"`
	GoVersion string       `json:"go_version"`
	Entries   []Entry      `json:"entries"`
	Explore   ExploreEntry `json:"explore"`
}

func main() {
	suite := flag.String("suite", "", "only run matrix cells of this suite (spec2000, mediabench, splash2)")
	scale := flag.String("scale", "", "only run matrix cells at this scale (tiny, small)")
	reps := flag.Int("reps", 1, "timed repetitions per scheduler; the best is reported")
	out := flag.String("out", "", "output path (default BENCH_<rev>.json)")
	compare := flag.String("compare", "", "baseline report to gate against; non-zero exit on regression")
	tolerance := flag.Float64("tolerance", 0.10, "allowed relative throughput regression in -compare mode")
	skipExplore := flag.Bool("no-explore", false, "skip the exploration-engine throughput measurement")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.Line("wsbench"))
		return
	}

	cells := filterMatrix(*suite, *scale)
	if len(cells) == 0 {
		fail(fmt.Errorf("no matrix cells match -suite=%q -scale=%q", *suite, *scale))
	}

	rep := &Report{Schema: 1, Revision: revision(), GoVersion: runtime.Version()}
	for _, c := range cells {
		e, err := runCell(c, *reps)
		if err != nil {
			fail(fmt.Errorf("%s: %w", c.name(), err))
		}
		fmt.Printf("%-24s %9.0f cyc/s active  %9.0f cyc/s scan  %5.2fx  %6.2f allocs/kcyc\n",
			e.Name, e.CyclesPerSec, e.ScanCyclesPerSec, e.SpeedupVsScan, e.AllocsPerKCycle)
		rep.Entries = append(rep.Entries, e)
	}
	if !*skipExplore {
		ex, err := runExplore()
		if err != nil {
			fail(err)
		}
		rep.Explore = ex
		fmt.Printf("%-24s %9.1f sims/s over %d cells (parallelism %d)\n",
			"explore/sweep", ex.SimsPerSec, ex.Cells, ex.Parallelism)
	}

	path := *out
	if path == "" {
		// Default reports always land in the repo root, not the cwd, so
		// CI (and humans running from a subdirectory) find BENCH_<rev>.json
		// in one predictable place to upload or diff.
		path = filepath.Join(repoRoot(), fmt.Sprintf("BENCH_%s.json", rep.Revision))
	}
	if err := writeReport(path, rep); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", path)

	if *compare != "" {
		base, err := readReport(*compare)
		if err != nil {
			fail(err)
		}
		filtered := *suite != "" || *scale != ""
		problems, host, raw := diff(rep, base, *tolerance, filtered)
		// The host factor is the full-scan reference's speed ratio. That
		// reference runs the same PE pipeline as the active set, so a
		// speedup there reads as a faster host and the normalized ratio
		// stays near 1: the raw ratio is where such a speedup shows.
		fmt.Printf("host factor %.2f (full-scan geomean vs baseline); raw geomean cycles/sec ratio %.2f\n",
			host, raw)
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "REGRESSION:", p)
			}
			os.Exit(1)
		}
		fmt.Printf("no regressions vs %s (tolerance %.0f%%)\n", *compare, 100**tolerance)
	}
}

func filterMatrix(suite, scale string) []cell {
	var out []cell
	for _, c := range matrix {
		if suite != "" && c.Suite != suite {
			continue
		}
		if scale != "" && c.Scale != scale {
			continue
		}
		out = append(out, c)
	}
	return out
}

// runCell measures one matrix cell under both schedulers and cross-checks
// their Stats digests.
func runCell(c cell, reps int) (Entry, error) {
	sc, err := cli.ParseScale(c.Scale)
	if err != nil {
		return Entry{}, err
	}
	arch := wavescalar.BaselineArch()
	arch.Clusters = c.Clusters

	// Each rep loops the workload until minWall has elapsed (as testing.B
	// does), so sub-10ms tiny cells aren't at the mercy of timer and
	// scheduler noise; the best rep's rate is reported.
	const minWall = 250 * time.Millisecond
	run := func(mode wavescalar.SchedMode) (*wavescalar.Stats, float64, error) {
		cfg := wavescalar.Baseline(arch)
		cfg.Sched = mode
		var best float64
		var st *wavescalar.Stats
		for r := 0; r < reps; r++ {
			var total time.Duration
			var cycles uint64
			for total < minWall {
				start := time.Now()
				s, err := wavescalar.RunWorkloadContext(context.Background(), c.App,
					wavescalar.WithConfig(cfg), wavescalar.AtScale(sc), wavescalar.WithThreads(c.Threads))
				if err != nil {
					return nil, 0, err
				}
				total += time.Since(start)
				cycles += s.Cycles
				st = s
			}
			if rate := float64(cycles) / total.Seconds(); rate > best {
				best = rate
			}
		}
		return st, best, nil
	}

	scanStats, scanCPS, err := run(wavescalar.SchedFullScan)
	if err != nil {
		return Entry{}, err
	}
	activeStats, cps, err := run(wavescalar.SchedActiveSet)
	if err != nil {
		return Entry{}, err
	}
	if activeStats.Digest() != scanStats.Digest() {
		return Entry{}, fmt.Errorf("scheduler equivalence violated: active digest %s != scan digest %s",
			activeStats.Digest(), scanStats.Digest())
	}

	// Allocation rate: one extra active-set run bracketed by ReadMemStats.
	// The simulation is deterministic and single-goroutine, so the malloc
	// count is reproducible; startup allocations amortize over the run.
	cfg := wavescalar.Baseline(arch)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if _, err := wavescalar.RunWorkloadContext(context.Background(), c.App,
		wavescalar.WithConfig(cfg), wavescalar.AtScale(sc), wavescalar.WithThreads(c.Threads)); err != nil {
		return Entry{}, err
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs - m0.Mallocs)

	cycles := activeStats.Cycles
	return Entry{
		Name:             c.name(),
		Suite:            c.Suite,
		Scale:            c.Scale,
		Clusters:         c.Clusters,
		Threads:          c.Threads,
		Cycles:           cycles,
		CyclesPerSec:     cps,
		ScanCyclesPerSec: scanCPS,
		NsPerCycle:       1e9 / cps,
		SpeedupVsScan:    cps / scanCPS,
		AllocsPerKCycle:  allocs * 1000 / float64(cycles),
		Digest:           activeStats.Digest(),
	}, nil
}

// runExplore sweeps a small pinned grid (three machine sizes × the
// splash2 kernels at tiny scale) through the exploration engine and
// reports cells simulated per second.
func runExplore() (ExploreEntry, error) {
	var points []wavescalar.DesignPoint
	for _, clusters := range []int{1, 4, 16} {
		arch := wavescalar.BaselineArch()
		arch.Clusters = clusters
		points = append(points, wavescalar.DesignPoint{Arch: arch, Area: wavescalar.TotalArea(arch)})
	}
	apps := wavescalar.WorkloadsBySuite(wavescalar.SuiteSplash)
	exp, err := wavescalar.NewExplorer(wavescalar.WithScale(wavescalar.ScaleTiny))
	if err != nil {
		return ExploreEntry{}, err
	}
	defer exp.Close()
	start := time.Now()
	results, err := exp.Sweep(context.Background(), points, apps)
	if err != nil {
		return ExploreEntry{}, err
	}
	elapsed := time.Since(start)
	cellCount := 0
	for _, r := range results {
		cellCount += len(r.AIPC)
	}
	return ExploreEntry{
		Cells:       cellCount,
		SimsPerSec:  float64(cellCount) / elapsed.Seconds(),
		Parallelism: runtime.GOMAXPROCS(0),
	}, nil
}

// diff gates the current report against the baseline. Runner speed is
// calibrated away with the full-scan reference: both reports carry scan
// cycles/sec for identical deterministic workloads, so their ratio is the
// host-speed factor between the two machines. It also returns that host
// factor and the raw (uncalibrated) geomean cycles/sec ratio.
func diff(cur, base *Report, tol float64, filtered bool) (problems []string, host, raw float64) {
	baseByName := make(map[string]Entry, len(base.Entries))
	for _, e := range base.Entries {
		baseByName[e.Name] = e
	}

	// Host-speed calibration: geometric mean of scan-throughput ratios.
	var logSum float64
	var matched int
	for _, e := range cur.Entries {
		if b, ok := baseByName[e.Name]; ok && b.ScanCyclesPerSec > 0 && e.ScanCyclesPerSec > 0 {
			logSum += math.Log(e.ScanCyclesPerSec / b.ScanCyclesPerSec)
			matched++
		}
	}
	if matched == 0 {
		return []string{"no matrix cells in common with the baseline"}, 0, 0
	}
	calib := math.Exp(logSum / float64(matched))

	// Throughput is gated on the geometric mean across the matrix — single
	// cells on a shared CI runner are noisy beyond any honest per-cell
	// threshold, but the aggregate averages the noise away. A loose
	// per-cell backstop (2.5× the tolerance) still catches one cell
	// falling off a cliff while the rest hold steady.
	cellTol := 2.5 * tol
	var cpsLogSum, spdLogSum float64
	seen := make(map[string]bool, len(cur.Entries))
	for _, e := range cur.Entries {
		seen[e.Name] = true
		b, ok := baseByName[e.Name]
		if !ok {
			continue // new cell: nothing to gate against
		}
		cpsLogSum += math.Log(e.CyclesPerSec / (b.CyclesPerSec * calib))
		spdLogSum += math.Log(e.SpeedupVsScan / b.SpeedupVsScan)
		if want := b.CyclesPerSec * calib * (1 - cellTol); e.CyclesPerSec < want {
			problems = append(problems, fmt.Sprintf(
				"%s: %.0f cycles/sec, below %.0f (baseline %.0f × host factor %.2f − %.0f%%)",
				e.Name, e.CyclesPerSec, want, b.CyclesPerSec, calib, 100*cellTol))
		}
		// The per-cell speedup backstop only applies where the baseline
		// shows a real sparsity win: dense cells hover around 1.0× and
		// their ratio is noise (the aggregate still weighs them).
		if b.SpeedupVsScan >= 1.3 {
			if want := b.SpeedupVsScan * (1 - cellTol); e.SpeedupVsScan < want {
				problems = append(problems, fmt.Sprintf(
					"%s: speedup vs scan %.2fx, below %.2fx (baseline %.2fx − %.0f%%)",
					e.Name, e.SpeedupVsScan, want, b.SpeedupVsScan, 100*cellTol))
			}
		}
		if want := b.AllocsPerKCycle*1.05 + 1; e.AllocsPerKCycle > want {
			problems = append(problems, fmt.Sprintf(
				"%s: %.2f allocs/kcycle, above %.2f (baseline %.2f + slack)",
				e.Name, e.AllocsPerKCycle, want, b.AllocsPerKCycle))
		}
	}
	if mean := math.Exp(cpsLogSum / float64(matched)); mean < 1-tol {
		problems = append(problems, fmt.Sprintf(
			"matrix-wide cycles/sec regressed %.1f%% vs baseline (geomean, host-normalized; limit %.0f%%)",
			100*(1-mean), 100*tol))
	}
	if mean := math.Exp(spdLogSum / float64(matched)); mean < 1-tol {
		problems = append(problems, fmt.Sprintf(
			"matrix-wide speedup vs scan regressed %.1f%% vs baseline (geomean; limit %.0f%%)",
			100*(1-mean), 100*tol))
	}
	if !filtered {
		for _, b := range base.Entries {
			if !seen[b.Name] {
				problems = append(problems, fmt.Sprintf("%s: in baseline but not measured", b.Name))
			}
		}
	}
	return problems, calib, calib * math.Exp(cpsLogSum/float64(matched))
}

// revision returns the short git revision — suffixed "-dirty" when the
// working tree has uncommitted changes, so a report from a modified tree
// can never masquerade as the committed revision — or "dev" outside a
// checkout.
func revision() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(strings.TrimSpace(string(st))) > 0 {
		rev += "-dirty"
	}
	return rev
}

// repoRoot returns the git worktree root, or "." outside a checkout.
func repoRoot() string {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return "."
	}
	return strings.TrimSpace(string(out))
}

func writeReport(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wsbench:", err)
	os.Exit(1)
}
