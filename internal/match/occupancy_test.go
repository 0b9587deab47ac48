package match

import (
	"math/rand"
	"testing"

	"wavescalar/internal/isa"
)

// The property test's local indices each name one (instruction, thread)
// pair, as Insert and Adopt require.
const propIndices = 6

func propInst(li int) isa.InstID { return isa.InstID(10 + li/2) }
func propThread(li int) uint32   { return uint32(li % 2) }

// recount is the brute-force oracle: one index's physical instances,
// overflow instances and youngest physical wave, from a full walk of the
// sets and the overflow area.
func recount(t *Table, li int) (live, over int, youngest uint32) {
	for i := range t.entries {
		if e := &t.entries[i]; e.valid && e.LocalIdx == li {
			if live == 0 || e.Tag.Wave > youngest {
				youngest = e.Tag.Wave
			}
			live++
		}
	}
	for _, oe := range t.overflow {
		if oe.LocalIdx == li {
			over++
		}
	}
	return live, over, youngest
}

// holds reports whether the table has the instance anywhere.
func holds(t *Table, inst isa.InstID, tag isa.Tag) bool {
	for i := range t.entries {
		if e := &t.entries[i]; e.valid && e.Inst == inst && e.Tag == tag {
			return true
		}
	}
	for _, oe := range t.overflow {
		if oe.Inst == inst && oe.Tag == tag {
			return true
		}
	}
	return false
}

func checkOccupancy(t *testing.T, tb *Table, step int, op string) {
	t.Helper()
	physical := 0
	for li := 0; li < propIndices; li++ {
		live, over, youngest := recount(tb, li)
		physical += live
		var o occupancy
		if li < len(tb.occ) {
			o = tb.occ[li]
		}
		if int(o.live) != live || int(o.over) != over {
			t.Fatalf("step %d (%s): index %d occupancy live=%d over=%d, recount live=%d over=%d",
				step, op, li, o.live, o.over, live, over)
		}
		if live > 0 && !o.stale && o.youngest != youngest {
			t.Fatalf("step %d (%s): index %d youngest wave %d, recount %d", step, op, li, o.youngest, youngest)
		}
	}
	if tb.Live() != physical {
		t.Fatalf("step %d (%s): Live() = %d, recount %d", step, op, tb.Live(), physical)
	}
}

// TestOccupancyMatchesRecount drives small tables — k above the set
// count, direct-mapped sets, non-power-of-two shapes, heavy overflow
// churn — through seeded random Insert, Release, Adopt and DrainEntries
// sequences. After every operation the O(1) per-index occupancy must
// equal a brute-force recount, and every Insert outcome must agree with
// the k-bound rule evaluated on that recount.
func TestOccupancyMatchesRecount(t *testing.T) {
	configs := []Config{
		{Entries: 4, Assoc: 1, Banks: 2, K: 8},
		{Entries: 4, Assoc: 2, Banks: 1, K: 3},
		{Entries: 8, Assoc: 1, Banks: 4, K: 2},
		{Entries: 6, Assoc: 2, Banks: 3, K: 5},
	}
	for ci, cfg := range configs {
		for seed := int64(1); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(ci)))
			tb, donor := New(cfg), New(cfg)
			tb.OnRelease = func(li int) {
				if li < 0 || li >= propIndices {
					t.Fatalf("cfg %d seed %d: release callback for index %d", ci, seed, li)
				}
			}
			insert := func(tb *Table, waveBase uint32, cyc uint64) (Outcome, bool, bool) {
				li := rng.Intn(propIndices)
				tag := isa.Tag{Thread: propThread(li), Wave: waveBase + uint32(rng.Intn(12))}
				tk := isa.Token{Tag: tag, Value: rng.Uint64(), Dest: isa.Target{Inst: propInst(li), Port: isa.PortID(rng.Intn(2))}}
				known := holds(tb, tk.Dest.Inst, tag)
				live, _, youngest := recount(tb, li)
				bound := !known && live >= cfg.K && youngest <= tag.Wave
				out, _ := tb.Insert(tk, li, 0b011, cyc, 12)
				return out, bound, known
			}
			cyc := uint64(0)
			for step := 0; step < 400; step++ {
				if rng.Intn(4) != 0 {
					cyc++ // otherwise reuse the cycle: bank conflicts
				}
				var op string
				switch r := rng.Intn(20); {
				case r < 12:
					op = "insert"
					out, bound, _ := insert(tb, 0, cyc)
					if out != RejectedBank && (out == Rejected) != bound {
						t.Fatalf("cfg %d seed %d step %d: outcome %v, k-bound rule on the recount says reject=%v",
							ci, seed, step, out, bound)
					}
				case r < 15:
					op = "release"
					var live []*Entry
					for i := range tb.entries {
						if e := &tb.entries[i]; e.valid {
							live = append(live, e)
						}
					}
					if len(live) > 0 {
						tb.Release(live[rng.Intn(len(live))])
					}
				case r < 18:
					op = "donor insert"
					insert(donor, 100, cyc)
				case r < 19:
					op = "adopt"
					for _, e := range donor.DrainEntries() {
						if !holds(tb, e.Inst, e.Tag) {
							tb.Adopt(e, e.LocalIdx, cyc+5)
						}
					}
					checkOccupancy(t, donor, step, "donor drain")
				default:
					op = "drain"
					want := tb.Live() + tb.OverflowSize()
					if got := len(tb.DrainEntries()); got != want {
						t.Fatalf("cfg %d seed %d step %d: drained %d entries, want %d", ci, seed, step, got, want)
					}
					if tb.Live() != 0 || tb.OverflowSize() != 0 {
						t.Fatalf("cfg %d seed %d step %d: drain left live=%d overflow=%d",
							ci, seed, step, tb.Live(), tb.OverflowSize())
					}
				}
				checkOccupancy(t, tb, step, op)
			}
		}
	}
}
