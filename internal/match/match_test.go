package match

import (
	"testing"
	"testing/quick"

	"wavescalar/internal/isa"
)

func cfg() Config { return Config{Entries: 16, Assoc: 2, Banks: 4, K: 2} }

func tok(inst isa.InstID, thread, wave uint32, port isa.PortID, v uint64) isa.Token {
	return isa.Token{
		Tag:   isa.Tag{Thread: thread, Wave: wave},
		Value: v,
		Dest:  isa.Target{Inst: inst, Port: port},
	}
}

func TestConfigValidate(t *testing.T) {
	good := cfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Entries: 0, Assoc: 2, Banks: 4, K: 2},
		{Entries: 16, Assoc: 0, Banks: 4, K: 2},
		{Entries: 16, Assoc: 2, Banks: 0, K: 2},
		{Entries: 16, Assoc: 2, Banks: 4, K: 0},
		{Entries: 15, Assoc: 2, Banks: 4, K: 2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: accepted %+v", i, c)
		}
	}
}

func TestTwoOperandMatch(t *testing.T) {
	tb := New(cfg())
	out, e := tb.Insert(tok(5, 0, 0, 0, 11), 5, 0b011, 0, 10)
	if out != Stored || e == nil || e.Complete() {
		t.Fatalf("first operand: out=%v", out)
	}
	if tb.Live() != 1 {
		t.Fatalf("live = %d, want 1", tb.Live())
	}
	out, e = tb.Insert(tok(5, 0, 0, 1, 22), 5, 0b011, 1, 10)
	if out != Completed {
		t.Fatalf("second operand: out=%v, want Completed", out)
	}
	if e.Vals[0] != 11 || e.Vals[1] != 22 {
		t.Errorf("vals = %v, want [11 22 0]", e.Vals)
	}
	if tb.Live() != 0 {
		t.Errorf("live = %d after completion, want 0", tb.Live())
	}
	if s := tb.Stats(); s.Matches != 1 || s.Inserts != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDifferentWavesDoNotAlias(t *testing.T) {
	tb := New(cfg())
	tb.Insert(tok(5, 0, 0, 0, 1), 5, 0b011, 0, 10)
	out, _ := tb.Insert(tok(5, 0, 1, 1, 2), 5, 0b011, 1, 10)
	if out == Completed {
		t.Fatal("tokens from different waves must not match")
	}
	if tb.Live() != 2 {
		t.Errorf("live = %d, want 2 distinct instances", tb.Live())
	}
}

func TestDifferentThreadsDoNotAlias(t *testing.T) {
	tb := New(cfg())
	// Each thread's instance has its own local index. Index 9 hashes to
	// the same set as index 5 ((9*2)%8 == (5*2)%8 == 2), so the second
	// token is looked up among the first one's ways and only the thread
	// in the tag tells them apart.
	tb.Insert(tok(5, 0, 0, 0, 1), 5, 0b011, 0, 10)
	out, _ := tb.Insert(tok(5, 1, 0, 1, 2), 9, 0b011, 1, 10)
	if out == Completed {
		t.Fatal("tokens from different threads must not match")
	}
	if tb.Live() != 2 {
		t.Errorf("live = %d, want 2 distinct instances", tb.Live())
	}
}

func TestBankConflictRejects(t *testing.T) {
	tb := New(cfg())
	// Same instruction, same wave, different ports: same bank.
	out, _ := tb.Insert(tok(3, 0, 0, 0, 1), 3, 0b011, 7, 10)
	if out != Stored {
		t.Fatalf("first insert: %v", out)
	}
	out, _ = tb.Insert(tok(3, 0, 0, 1, 2), 3, 0b011, 7, 10)
	if out != RejectedBank {
		t.Fatalf("same-bank same-cycle insert should be RejectedBank, got %v", out)
	}
	if tb.Stats().BankRejects != 1 {
		t.Errorf("bank rejects = %d, want 1", tb.Stats().BankRejects)
	}
	// Next cycle it goes through and completes.
	out, _ = tb.Insert(tok(3, 0, 0, 1, 2), 3, 0b011, 8, 10)
	if out != Completed {
		t.Fatalf("retry should complete, got %v", out)
	}
}

func TestKLoopBounding(t *testing.T) {
	c := cfg() // K = 2
	tb := New(c)
	// Three waves of the same instruction: the third must be rejected.
	for w := uint32(0); w < 2; w++ {
		if out, _ := tb.Insert(tok(1, 0, w, 0, 1), 1, 0b011, uint64(w), 10); out != Stored {
			t.Fatalf("wave %d: %v", w, out)
		}
	}
	if out, _ := tb.Insert(tok(1, 0, 2, 0, 1), 1, 0b011, 5, 10); out != Rejected {
		t.Fatalf("wave 2 should hit the k-bound, got %v", out)
	}
	if tb.Stats().KRejects != 1 {
		t.Errorf("k rejects = %d, want 1", tb.Stats().KRejects)
	}
	// A different thread is not throttled by this instruction's count.
	// Its instance of the instruction has its own local index.
	if out, _ := tb.Insert(tok(1, 9, 2, 0, 1), 2, 0b011, 6, 10); out != Stored {
		t.Fatalf("other thread should be admitted, got %v", out)
	}
}

func TestOverflowEvictionAndRetrieval(t *testing.T) {
	// One set (entries=assoc) so every instance collides.
	tb := New(Config{Entries: 2, Assoc: 2, Banks: 1, K: 8})
	// Fill both ways with partial matches of insts 1, 2 (local indices
	// 0, 1).
	tb.Insert(tok(1, 0, 0, 0, 1), 0, 0b011, 0, 10)
	tb.Insert(tok(2, 0, 0, 0, 2), 1, 0b011, 1, 10)
	// Inst 3 evicts the LRU (inst 1).
	tb.Insert(tok(3, 0, 0, 0, 3), 2, 0b011, 2, 10)
	if tb.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", tb.Stats().Evictions)
	}
	if tb.OverflowSize() != 1 {
		t.Fatalf("overflow size = %d, want 1", tb.OverflowSize())
	}
	// The partner of inst 1 arrives: overflow hit, completes with penalty.
	out, e := tb.Insert(tok(1, 0, 0, 1, 11), 0, 0b011, 3, 10)
	if out != Completed {
		t.Fatalf("overflow retrieval should complete, got %v", out)
	}
	if e.Vals[0] != 1 || e.Vals[1] != 11 {
		t.Errorf("vals = %v", e.Vals)
	}
	if e.ReadyAt != 3+1+10 {
		t.Errorf("ReadyAt = %d, want %d (overflow penalty charged)", e.ReadyAt, 3+1+10)
	}
	if tb.Stats().OverflowHits != 1 {
		t.Errorf("overflow hits = %d, want 1", tb.Stats().OverflowHits)
	}
}

func TestLookupAndRelease(t *testing.T) {
	tb := New(cfg())
	tg := isa.Tag{Thread: 0, Wave: 4}
	tb.Insert(isa.Token{Tag: tg, Value: 9, Dest: isa.Target{Inst: 7, Port: 0}}, 7, 0b011, 0, 10)
	e := tb.Lookup(7, 7, tg)
	if e == nil || e.Vals[0] != 9 {
		t.Fatalf("lookup failed: %+v", e)
	}
	tb.Release(e)
	if tb.Live() != 0 {
		t.Errorf("live = %d after release", tb.Live())
	}
	if tb.Lookup(7, 7, tg) != nil {
		t.Error("released entry still visible")
	}
}

func TestHashSpreadsWaves(t *testing.T) {
	c := Config{Entries: 32, Assoc: 2, Banks: 4, K: 4}
	tb := New(c)
	// The paper's hash I*k + (w mod k): consecutive waves of one
	// instruction land in k distinct sets.
	seen := map[int]bool{}
	for w := uint32(0); w < 8; w++ {
		seen[tb.set(3, isa.Tag{Wave: w})] = true
	}
	if len(seen) != c.K {
		t.Errorf("consecutive waves spread over %d sets, want %d", len(seen), c.K)
	}
}

// Property: inserting both operands of random instances (no conflicts in
// cycle) either completes exactly once per instance or is rejected by a
// deterministic bound — and live never goes negative.
func TestInsertCompleteInvariant(t *testing.T) {
	f := func(instRaw uint8, wave uint8, a, b uint64) bool {
		tb := New(Config{Entries: 64, Assoc: 2, Banks: 4, K: 64})
		inst := isa.InstID(instRaw % 32)
		w := uint32(wave)
		o1, _ := tb.Insert(tok(inst, 0, w, 0, a), int(inst), 0b011, 0, 5)
		o2, e := tb.Insert(tok(inst, 0, w, 1, b), int(inst), 0b011, 1, 5)
		if o1 != Stored || o2 != Completed {
			return false
		}
		return e.Vals[0] == a && e.Vals[1] == b && tb.Live() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThreeInputInstruction(t *testing.T) {
	tb := New(cfg())
	tb.Insert(tok(4, 0, 0, 0, 1), 4, 0b111, 0, 10)
	tb.Insert(tok(4, 0, 0, 1, 2), 4, 0b111, 1, 10)
	out, e := tb.Insert(tok(4, 0, 0, 2, 1), 4, 0b111, 2, 10)
	if out != Completed {
		t.Fatalf("three-input instance should complete, got %v", out)
	}
	if e.Vals != [3]uint64{1, 2, 1} {
		t.Errorf("vals = %v", e.Vals)
	}
}
