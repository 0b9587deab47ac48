package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	ws "wavescalar"
)

//go:embed pins.json
var pinsJSON []byte

// pinSet holds every pinned output. Seeds names the default workload seed
// and a held-out seed not used while the benchmark was written; the
// per-seed pins exist for both.
type pinSet struct {
	Seeds struct {
		Default uint64 `json:"default"`
		HeldOut uint64 `json:"held_out"`
	} `json:"seeds"`
	// SimLong maps each sim-long cell to its Stats digest, identical
	// under the active-set and full-scan schedulers when pinned. The
	// seed only orders the cells, so these hold for every seed.
	SimLong map[string]string `json:"sim_long"`
	// SweepCells maps "arch|app" to the cell hash of every cell a
	// sweep-cold sample can contain, so any seed can be checked.
	SweepCells map[string]string `json:"sweep_cells"`
	// SweepSHA maps a recorded seed to the SHA-256 of its first sweep.
	SweepSHA map[string]string `json:"sweep_sha"`
	// ServeHotSHA maps a recorded seed to the SHA-256 over serve-mix's
	// hot-set replies.
	ServeHotSHA map[string]string `json:"serve_hot_sha"`
}

func loadPins() (*pinSet, error) {
	return parsePins(pinsJSON)
}

func parsePins(data []byte) (*pinSet, error) {
	var p pinSet
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	if len(p.SimLong) == 0 || len(p.SweepCells) == 0 {
		return nil, fmt.Errorf("pins.json: no pins")
	}
	return &p, nil
}

// writePins recomputes every pin and writes the pin file. Each pinned
// value is cross-checked against a second computation: sim-long digests
// under the full-scan scheduler, sweep cells against single runs through
// RunWorkloadContext.
func writePins(path string, log io.Writer) error {
	p := pinSet{SimLong: map[string]string{}, SweepCells: map[string]string{},
		SweepSHA: map[string]string{}, ServeHotSHA: map[string]string{}}
	p.Seeds.Default, p.Seeds.HeldOut = 1, 2

	for _, c := range simLongCells {
		active, err := runSimCell(c, simCellConfig(c, ws.SchedActiveSet), false)
		if err != nil {
			return err
		}
		scan, err := runSimCell(c, simCellConfig(c, ws.SchedFullScan), false)
		if err != nil {
			return err
		}
		if a, s := active.stats.Digest(), scan.stats.Digest(); a != s {
			return fmt.Errorf("%s: active-set digest %s != full-scan digest %s", c.name(), a, s)
		}
		p.SimLong[c.name()] = active.stats.Digest()
		fmt.Fprintf(log, "pinned %s\n", c.name())
	}

	var pts []ws.DesignPoint
	for _, pt := range ws.ViableDesigns() {
		for _, c := range sweepStrata {
			if pt.Arch.Clusters == c {
				pts = append(pts, pt)
			}
		}
	}
	var apps []ws.Workload
	for _, s := range sweepSuites {
		apps = append(apps, ws.WorkloadsBySuite(s)...)
	}
	tmp, err := os.MkdirTemp(filepath.Dir(path), "pin-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	r, err := coldSweep(context.Background(), tmp, pts, apps)
	if err != nil {
		return err
	}
	if r.err != nil {
		return r.err
	}
	for _, pt := range pts {
		for _, w := range apps {
			id := pt.Arch.String() + "|" + w.Name
			want, err := independentCellHash(pt, w)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			if want != "" && want != r.cells[id] {
				return fmt.Errorf("%s: sweep cell hash %s != single-run hash %s", id, r.cells[id], want)
			}
			p.SweepCells[id] = r.cells[id]
		}
	}
	fmt.Fprintf(log, "pinned %d sweep cells\n", len(p.SweepCells))

	for _, seed := range []uint64{p.Seeds.Default, p.Seeds.HeldOut} {
		plan, err := newSweepPlan(seed)
		if err != nil {
			return err
		}
		spts, sapps := plan.sample(0)
		p.SweepSHA[fmt.Sprint(seed)] = sweepSHA(spts, sapps, p.SweepCells)
		s, err := newServeState(seed)
		if err != nil {
			return err
		}
		p.ServeHotSHA[fmt.Sprint(seed)] = s.hotSHA()
		s.close()
	}

	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// independentCellHash recomputes a sweep cell from single runs: each
// thread count the workload allows, keeping the best AIPC (the first on a
// tie), with SimCycles summed over every run. It returns "" for a cell
// whose every run fails, whose error text only the sweep produces.
func independentCellHash(pt ws.DesignPoint, w ws.Workload) (string, error) {
	inst := w.Build(ws.ScaleTiny)
	cell := ws.ExploreCell{App: w.Name, Arch: pt.Arch.String()}
	for _, t := range sweepThreads {
		if t > inst.MaxThreads {
			continue
		}
		st, err := ws.RunWorkloadContext(context.Background(), w.Name,
			ws.WithConfig(ws.Baseline(pt.Arch)), ws.AtScale(ws.ScaleTiny), ws.WithThreads(t))
		if err != nil {
			continue
		}
		cell.SimCycles += st.Cycles
		if a := st.AIPC(); a > cell.AIPC {
			cell.AIPC, cell.Threads, cell.Cycles, cell.Traffic = a, t, st.Cycles, st.TrafficTotal()
		}
	}
	if cell.Threads == 0 {
		return "", nil
	}
	return cellHash(cell), nil
}
