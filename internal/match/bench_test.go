package match

import (
	"testing"

	"wavescalar/internal/isa"
)

// baselineCfg is the paper's Table 1 matching table: 128 entries, 2-way,
// 4 banks, k = 4.
func baselineCfg() Config { return Config{Entries: 128, Assoc: 2, Banks: 4, K: 4} }

// BenchmarkInsertKReject measures the dominant operation of k-bounded
// runs: a token for a fresh young wave of an instruction that already
// holds k instances, refused by the bound (a reject storm makes ~88 of
// these per executed instruction).
func BenchmarkInsertKReject(b *testing.B) {
	c := baselineCfg()
	tb := New(c)
	const li = 5
	for w := 0; w < c.K; w++ {
		if out, _ := tb.Insert(tok(li, 0, uint32(w), 0, 1), li, 0b011, uint64(w), 12); out != Stored {
			b.Fatalf("fill wave %d: %v", w, out)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, _ := tb.Insert(tok(li, 0, uint32(c.K+i%64), 0, 1), li, 0b011, uint64(c.K+i), 12); out != Rejected {
			b.Fatalf("op %d: %v, want Rejected", i, out)
		}
	}
}

// BenchmarkInsertMatch measures one two-operand instance: the first token
// is stored, the second completes and releases it. One op is both inserts.
func BenchmarkInsertMatch(b *testing.B) {
	tb := New(baselineCfg())
	const insts = 48
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		li := i % insts
		w := uint32(i / insts)
		cyc := uint64(2 * i)
		if out, _ := tb.Insert(tok(isa.InstID(li), 0, w, 0, 1), li, 0b011, cyc, 12); out != Stored {
			b.Fatalf("op %d first operand: %v", i, out)
		}
		if out, _ := tb.Insert(tok(isa.InstID(li), 0, w, 1, 2), li, 0b011, cyc+1, 12); out != Completed {
			b.Fatalf("op %d second operand: %v", i, out)
		}
	}
}
