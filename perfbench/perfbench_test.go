package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// testOptions runs one short pass of a workload (the shortest budget still
// measures one whole pass, sweep or loop) against the given pins.
func testOptions(t *testing.T, pins *pinSet) options {
	t.Helper()
	return options{seed: 1, seconds: 0.2, workdir: t.TempDir(), pins: pins, notes: io.Discard}
}

// clonePins returns a deep copy of the embedded pins for corruption.
func clonePins(t *testing.T) *pinSet {
	t.Helper()
	p, err := parsePins(pinsJSON)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func corrupt(s string) string {
	if strings.HasPrefix(s, "0") {
		return "1" + s[1:]
	}
	return "0" + s[1:]
}

func TestPinnedRunsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		rep, err := run(context.Background(), testOptions(t, clonePins(t)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.mismatches) > 0 {
			t.Errorf("%s: unexpected output-check failures: %v", name, rep.mismatches)
		}
		res, err := finish(rep, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: result %+v", name, res)
		}
	}
}

func TestCorruptedSimLongPinFails(t *testing.T) {
	pins := clonePins(t)
	c := simLongCells[0].name()
	pins.SimLong[c] = corrupt(pins.SimLong[c])
	rep, err := runSimLong(context.Background(), testOptions(t, pins))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.mismatches) == 0 || !strings.Contains(rep.mismatches[0], c) {
		t.Fatalf("corrupted pin for %s not caught: %v", c, rep.mismatches)
	}
	res, err := finish(rep, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("result marked correct despite a failed output check")
	}
}

func TestCorruptedSweepPinFails(t *testing.T) {
	plan, err := newSweepPlan(1)
	if err != nil {
		t.Fatal(err)
	}
	pts, apps := plan.sample(0)
	id := pts[0].Arch.String() + "|" + apps[0].Name

	cellPins := clonePins(t)
	cellPins.SweepCells[id] = corrupt(cellPins.SweepCells[id])
	shaPins := clonePins(t)
	shaPins.SweepSHA["1"] = corrupt(shaPins.SweepSHA["1"])

	for name, pins := range map[string]*pinSet{"cell": cellPins, "sha": shaPins} {
		rep, err := runSweepCold(context.Background(), testOptions(t, pins))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.mismatches) == 0 {
			t.Errorf("corrupted %s pin not caught", name)
		}
	}
}

func TestCorruptedServePinFails(t *testing.T) {
	pins := clonePins(t)
	pins.ServeHotSHA["1"] = corrupt(pins.ServeHotSHA["1"])
	rep, err := runServeMix(context.Background(), testOptions(t, pins))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.mismatches) == 0 || !strings.Contains(rep.mismatches[0], "hot set") {
		t.Fatalf("corrupted hot-set pin not caught: %v", rep.mismatches)
	}
}

// TestServeChecks feeds the reply checks altered replies: a hit whose
// bytes differ from the cell's first reply, a hot cell reported as a
// miss, and a fresh cell's reply carrying the wrong key.
func TestServeChecks(t *testing.T) {
	s, err := newServeState(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	hot := s.post(0, s.hot[0], true)
	fresh := s.post(0, s.fresh[0], false)
	rep := newReport()
	s.check(rep, []sample{hot, fresh})
	if len(rep.mismatches) > 0 {
		t.Fatalf("genuine replies rejected: %v", rep.mismatches)
	}

	var r runResponse
	if err := json.Unmarshal(fresh.body, &r); err != nil {
		t.Fatal(err)
	}
	alter := func(smp sample, old, new string) sample {
		if !bytes.Contains(smp.body, []byte(old)) {
			t.Fatalf("reply %s lacks %s", smp.body, old)
		}
		smp.body = bytes.Replace(smp.body, []byte(old), []byte(new), 1)
		return smp
	}
	cases := map[string]sample{
		"changed bytes": alter(hot, `"aipc":`, `"aipc": `),
		"missed cache":  alter(hot, `"cached":true`, `"cached":false`),
		"wrong key":     alter(fresh, r.Key, corrupt(r.Key)),
	}
	for name, smp := range cases {
		rep := newReport()
		s.check(rep, []sample{smp})
		if len(rep.mismatches) == 0 {
			t.Errorf("%s: not caught", name)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {20, 0.5}, {40, 0.75}, {1000, 0.99}, {5000, 0.99}} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}
