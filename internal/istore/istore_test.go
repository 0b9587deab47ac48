package istore

import (
	"testing"

	"wavescalar/internal/isa"
)

func TestBindAssignsLocalIndexes(t *testing.T) {
	s := New(4)
	if got := s.Bind(10); got != 0 {
		t.Errorf("first bind index = %d, want 0", got)
	}
	if got := s.Bind(20); got != 1 {
		t.Errorf("second bind index = %d, want 1", got)
	}
	if got := s.Bind(10); got != 0 {
		t.Errorf("rebind index = %d, want 0", got)
	}
	if got := s.Bind(20); got != 1 {
		t.Errorf("rebind index of 20 = %d, want 1", got)
	}
	if s.Bound() != 2 {
		t.Errorf("bound = %d, want 2", s.Bound())
	}
}

func TestUnderCapacityAlwaysHits(t *testing.T) {
	s := New(4)
	for i := isa.InstID(0); i < 4; i++ {
		s.Bind(i)
	}
	if s.Oversubscribed() {
		t.Fatal("4 of 4 should not be oversubscribed")
	}
	for round := 0; round < 3; round++ {
		for i := isa.InstID(0); i < 4; i++ {
			if !s.Access(i) {
				t.Fatalf("round %d: access %d missed", round, i)
			}
		}
	}
	st := s.Stats()
	if st.Misses != 0 || st.Hits != 12 {
		t.Errorf("stats = %+v, want 12 hits 0 misses", st)
	}
}

func TestOversubscriptionThrashes(t *testing.T) {
	s := New(2)
	for i := isa.InstID(0); i < 4; i++ {
		s.Bind(i)
	}
	if !s.Oversubscribed() {
		t.Fatal("4 of 2 should be oversubscribed")
	}
	// Cyclic access over 4 instructions with capacity 2 under LRU misses
	// every time after warmup.
	for round := 0; round < 3; round++ {
		for i := isa.InstID(0); i < 4; i++ {
			s.Access(i)
		}
	}
	st := s.Stats()
	if st.Hits != 2 {
		// Insts 0,1 are resident initially; everything else misses.
		t.Errorf("hits = %d, want 2 (initial residents only)", st.Hits)
	}
	if st.Misses != 10 {
		t.Errorf("misses = %d, want 10", st.Misses)
	}
}

func TestLRUKeepsHotInstructions(t *testing.T) {
	s := New(2)
	for i := isa.InstID(0); i < 3; i++ {
		s.Bind(i)
	}
	s.Access(0)
	s.Access(1)
	s.Access(0) // 0 is now MRU
	s.Access(2) // evicts 1
	if !s.Access(0) {
		t.Error("hot instruction 0 should still be resident")
	}
	if s.Access(1) {
		t.Error("instruction 1 should have been evicted")
	}
}

func TestPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("zero capacity", func() { New(0) })
	s := New(2)
	assertPanics("unbound access", func() { s.Access(42) })
}
