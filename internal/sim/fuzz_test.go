package sim

import (
	"math/rand"
	"testing"

	"wavescalar/internal/graph"
	"wavescalar/internal/isa"
	"wavescalar/internal/ref"
)

// randomProgram builds a random (but well-formed) dataflow loop kernel:
// a pool of values grows by random arithmetic over existing values, with
// random loads and stores over a small memory region, random selects, and
// a couple of accumulators carried across iterations.
func randomProgram(rng *rand.Rand) *isa.Program {
	b := graph.New("fuzz")
	n := b.Param("n")
	i0 := b.Const(n, 0)
	acc0 := b.Const(n, uint64(rng.Intn(100)))
	l := b.Loop(i0, acc0, b.Nop(n))
	i, acc, nn := l.Var(0), l.Var(1), l.Var(2)

	pool := []graph.Value{i, acc, b.AndI(i, 15), b.AddI(i, 3)}
	pick := func() graph.Value { return pool[rng.Intn(len(pool))] }
	addrOf := func(v graph.Value) graph.Value {
		return b.AddI(b.ShlI(b.AndI(v, 31), 3), 0x1000)
	}

	ops := 4 + rng.Intn(12)
	for k := 0; k < ops; k++ {
		switch rng.Intn(8) {
		case 0:
			pool = append(pool, b.Add(pick(), pick()))
		case 1:
			pool = append(pool, b.Sub(pick(), pick()))
		case 2:
			pool = append(pool, b.Mul(pick(), b.AndI(pick(), 7)))
		case 3:
			pool = append(pool, b.Xor(pick(), pick()))
		case 4:
			pred := b.ULT(pick(), pick())
			pool = append(pool, b.Select(pred, pick(), pick()))
		case 5:
			pool = append(pool, b.Load(addrOf(pick())))
		case 6:
			b.Store(addrOf(pick()), pick())
		case 7:
			pred := b.AndI(pick(), 1)
			b.CondStore(pred, addrOf(pick()), pick())
		}
	}
	accN := b.Add(acc, b.AndI(pool[len(pool)-1], 0xFFFF))
	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, accN, nn)
	b.Halt(out[1])
	return b.MustFinish()
}

// TestFuzzSimMatchesReference runs randomly generated kernels on both
// engines and requires identical halt values, memory images, and countable
// instruction counts — across several machine shapes.
func TestFuzzSimMatchesReference(t *testing.T) {
	shapes := []func() Config{
		func() Config { return Baseline(BaselineArch()) },
		func() Config {
			cfg := Baseline(BaselineArch())
			cfg.Arch.Domains = 1
			cfg.Arch.PEs = 2
			cfg.Arch.Virt = 16
			cfg.Arch.Match = 16
			cfg.K = 2
			return cfg
		},
		func() Config {
			cfg := Baseline(BaselineArch())
			cfg.Arch.Clusters = 4
			cfg.Arch.L2MB = 0
			cfg.PSQs = 0
			return cfg
		},
	}
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		p := randomProgram(rng)
		params := map[string]uint64{"n": uint64(5 + rng.Intn(20))}

		refMem := ref.Memory{}
		for a := uint64(0); a < 32; a++ {
			refMem[0x1000+a*8] = a * 3
		}
		res, err := ref.New(p, refMem).Run(0, params)
		if err != nil {
			t.Fatalf("trial %d: ref failed: %v\n(program has %d insts)", trial, err, p.NumStatic())
		}

		cfg := shapes[trial%len(shapes)]()
		cfg.StallLimit = 200_000
		simMem := Memory{}
		for a := uint64(0); a < 32; a++ {
			simMem[0x1000+a*8] = a * 3
		}
		proc, err := New(cfg, p, []map[string]uint64{params}, simMem)
		if err != nil {
			t.Fatalf("trial %d: New: %v", trial, err)
		}
		st, err := proc.Run()
		if err != nil {
			t.Fatalf("trial %d: sim failed: %v", trial, err)
		}
		if got, want := proc.HaltValue(0), res.HaltValue; got != want {
			t.Errorf("trial %d: halt sim=%d ref=%d", trial, got, want)
		}
		if st.Countable != res.Countable {
			t.Errorf("trial %d: countable sim=%d ref=%d", trial, st.Countable, res.Countable)
		}
		for a, v := range ref.Memory(refMem) {
			if proc.Mem()[a] != v {
				t.Errorf("trial %d: mem[%#x] sim=%d ref=%d", trial, a, proc.Mem()[a], v)
			}
		}
	}
}

// FuzzFifoOps drives a fifo with an arbitrary operation stream and
// cross-checks every observation against a plain-slice reference. The
// scheduler's correctness rests on these queues preserving FIFO order
// through head compaction, in-place slack opening, mid-queue removal and
// one-pass multi-removal,
// so the structure gets an unbounded adversary in addition to the
// randomized tests in queue_test.go. Run nightly with -fuzz (see
// .github/workflows/nightly.yml).
func FuzzFifoOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 3})
	f.Add([]byte{2, 2, 2, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 3, 3, 3, 3, 2, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q fifo[int]
		var fref []int
		next := 0
		for step, b := range ops {
			switch b % 5 {
			case 0: // push
				q.push(next)
				fref = append(fref, next)
				next++
			case 1: // popFront
				if len(fref) == 0 {
					continue
				}
				got, want := q.popFront(), fref[0]
				fref = fref[1:]
				if got != want {
					t.Fatalf("step %d: popFront = %d, want %d", step, got, want)
				}
			case 2: // pushFront
				q.pushFront(next)
				fref = append([]int{next}, fref...)
				next++
			case 3: // remove at a position derived from the opcode
				if len(fref) == 0 {
					continue
				}
				i := (int(b) / 5) % len(fref)
				got, want := q.remove(i), fref[i]
				fref = append(fref[:i], fref[i+1:]...)
				if got != want {
					t.Fatalf("step %d: remove(%d) = %d, want %d", step, i, got, want)
				}
			case 4: // removeSorted: every stride-th of the first n
				n := (int(b) / 5) % (len(fref) + 1)
				stride := 1 + int(b)%3
				var pos []int
				var keep []int
				for i, v := range fref[:n] {
					if i%stride == 0 {
						pos = append(pos, i)
					} else {
						keep = append(keep, v)
					}
				}
				q.removeSorted(pos)
				fref = append(keep, fref[n:]...)
			}
			if q.len() != len(fref) {
				t.Fatalf("step %d: len = %d, want %d", step, q.len(), len(fref))
			}
		}
		for i, want := range fref {
			if got := *q.peek(i); got != want {
				t.Fatalf("final peek(%d) = %d, want %d", i, got, want)
			}
		}
	})
}

// FuzzActiveSetOps checks the work-list invariants — arm is idempotent,
// drain is sorted and complete, nothing armed is ever lost — under an
// arbitrary interleaving of arms and drains.
func FuzzActiveSetOps(f *testing.F) {
	f.Add([]byte{5, 3, 5, 255, 7})
	f.Add([]byte{255, 0, 0, 255, 255, 1, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 32
		s := newActiveSet(n)
		armed := make(map[int32]bool)
		for step, b := range ops {
			if b == 255 { // drain
				got := s.drain()
				if len(got) != len(armed) {
					t.Fatalf("step %d: drain returned %d indices, want %d", step, len(got), len(armed))
				}
				for i, v := range got {
					if !armed[v] {
						t.Fatalf("step %d: drained %d which was never armed", step, v)
					}
					if i > 0 && got[i-1] >= v {
						t.Fatalf("step %d: drain not sorted/deduplicated: %v", step, got)
					}
				}
				armed = make(map[int32]bool)
				continue
			}
			i := int32(b) % n
			s.arm(i)
			armed[i] = true
		}
		got := s.drain()
		if len(got) != len(armed) {
			t.Fatalf("final drain returned %d indices, want %d", len(got), len(armed))
		}
	})
}
