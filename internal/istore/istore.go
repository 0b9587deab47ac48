// Package istore models a processing element's instruction store: the
// small SRAM holding the decoded instructions bound to the PE.
//
// WaveScalar virtualizes PEs: the placement may bind more static
// instructions to a PE than its store holds (the V parameter). The store
// then behaves as a cache over the bound set — dispatching a non-resident
// instruction stalls while it is fetched from memory, which the paper
// measures as roughly three times the cost of a matching-table miss.
package istore

import (
	"container/list"
	"fmt"

	"wavescalar/internal/isa"
)

// Stats counts instruction-store events.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// Store is one PE's instruction store.
type Store struct {
	capacity int
	resident map[isa.InstID]*list.Element
	lru      *list.List // front = most recent
	bound    map[isa.InstID]int
	stats    Stats
}

// New creates a store with the given capacity (the V parameter).
func New(capacity int) *Store {
	if capacity <= 0 {
		panic(fmt.Sprintf("istore: capacity must be positive, got %d", capacity))
	}
	return &Store{
		capacity: capacity,
		resident: make(map[isa.InstID]*list.Element),
		lru:      list.New(),
		bound:    make(map[isa.InstID]int),
	}
}

// Bind registers a static instruction as placed on this PE and returns its
// local index (the matching-table hash input). Binding the same
// instruction twice returns the same index. The first `capacity`
// instructions bound start out resident.
func (s *Store) Bind(id isa.InstID) int {
	if idx, ok := s.bound[id]; ok {
		return idx
	}
	idx := len(s.bound)
	s.bound[id] = idx
	if s.lru.Len() < s.capacity {
		s.resident[id] = s.lru.PushFront(id)
	}
	return idx
}

// Bound returns how many instructions are bound to the PE.
func (s *Store) Bound() int { return len(s.bound) }

// Oversubscribed reports whether more instructions are bound than fit.
func (s *Store) Oversubscribed() bool { return len(s.bound) > s.capacity }

// Access touches the instruction for dispatch. It returns true on a hit;
// on a miss it makes the instruction resident (evicting the LRU one) and
// returns false, and the caller charges the instruction-miss penalty.
func (s *Store) Access(id isa.InstID) bool {
	if _, ok := s.bound[id]; !ok {
		panic(fmt.Sprintf("istore: access to unbound instruction %d", id))
	}
	if el, ok := s.resident[id]; ok {
		s.lru.MoveToFront(el)
		s.stats.Hits++
		return true
	}
	s.stats.Misses++
	if s.lru.Len() >= s.capacity {
		back := s.lru.Back()
		victim := back.Value.(isa.InstID)
		s.lru.Remove(back)
		delete(s.resident, victim)
	}
	s.resident[id] = s.lru.PushFront(id)
	return false
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats { return s.stats }
