// Package match implements a processing element's matching table: the
// specialized cache that performs dataflow input matching (Section 3.2).
//
// The table emulates a conceptually infinite matching store with a small
// physical structure. Entries are indexed by a hash of the instruction's
// local index and its wave number; the table is set-associative and banked
// so several tokens can arrive per cycle. When a set overflows, the oldest
// entry is evicted to an in-memory matching table; a later token that finds
// its partner there pays a retrieval penalty (a "matching-table miss").
// k-loop bounding caps how many dynamic instances of one static instruction
// (per thread) may occupy the table, providing the backpressure that keeps
// runaway loop-control tokens from flooding it; tokens from waves older
// than the youngest resident instance are always admitted (displacing it),
// so the oldest wave always makes progress.
package match

import (
	"fmt"
	"sort"

	"wavescalar/internal/isa"
)

// Config sizes a matching table.
type Config struct {
	Entries int // total entries (the paper's M)
	Assoc   int // set associativity (2 in the final design)
	Banks   int // banks for concurrent arrival (4 in the final design)
	K       int // k-loop bound and hash spread parameter
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Assoc <= 0 || c.Banks <= 0 || c.K <= 0 {
		return fmt.Errorf("match: all config fields must be positive: %+v", c)
	}
	if c.Entries%c.Assoc != 0 {
		return fmt.Errorf("match: entries (%d) must be divisible by associativity (%d)", c.Entries, c.Assoc)
	}
	return nil
}

// Entry is one matching-table row: a partially matched dynamic instruction
// instance.
type Entry struct {
	Inst     isa.InstID
	LocalIdx int // instruction's index within its PE's store (hash input)
	Tag      isa.Tag
	Vals     [3]uint64
	Present  uint8
	Required uint8
	// ReadyAt is the earliest cycle the entry may be scheduled, pushed
	// back when an operand had to be fetched from the in-memory table.
	ReadyAt uint64
	// AddrSent marks a store whose address half has already dispatched
	// (store decoupling).
	AddrSent bool

	touched uint64 // for LRU within the set
	valid   bool
}

// Complete reports whether all required operands are present.
func (e *Entry) Complete() bool { return e.Present == e.Required }

// Stats are the matching table's event counters.
type Stats struct {
	Inserts      uint64 // tokens written
	Matches      uint64 // entries completed
	Evictions    uint64 // entries displaced to the in-memory table
	OverflowHits uint64 // tokens that found their partner in the in-memory table
	KRejects     uint64 // tokens rejected by k-loop bounding
	BankRejects  uint64 // tokens rejected by bank conflicts
}

// occupancy is one local index's share of the table: how many of its
// instances are physical and how many sit in the overflow area, plus the
// youngest physical wave. youngest is a running max; releasing the entry
// that holds it marks it stale, and the next k-check that needs it
// recomputes it from the sets.
type occupancy struct {
	live     int32
	over     int32
	youngest uint32
	stale    bool
}

// overflowKey names an overflow entry. A local index names one
// (instruction, thread) pair, so (localIdx, wave) names one instance.
func overflowKey(localIdx int, wave uint32) uint64 {
	return uint64(localIdx)<<32 | uint64(wave)
}

// Table is one PE's matching table plus its in-memory overflow area.
type Table struct {
	cfg      Config
	entries  []Entry // Assoc ways per set, set after set
	overflow map[uint64]*Entry
	// occ is the per-local-index occupancy, grown on first use of an
	// index. It makes the k-bound check and the overflow-probe skip O(1).
	occ []occupancy
	// free recycles overflow entries: an overflow hit returns its *Entry
	// here, the next displacement reuses it, so steady-state eviction
	// churn allocates nothing.
	free []*Entry
	// done is the scratch slot returned by Insert's Completed path; it is
	// valid only until the next Insert, which every caller respects (the
	// completed instance is copied into a scheduling-queue entry at once).
	done     Entry
	live     int
	stats    Stats
	bankUsed []uint64 // cycle stamp per bank, for arrival limiting
	numSets  int      // Entries / Assoc

	// OnRelease, when set, is invoked with the entry's local index
	// whenever an entry frees. Senders holding k-rejected tokens for that
	// (instruction, thread) use it to know the quota may have opened.
	OnRelease func(localIdx int)
}

// New creates a matching table.
func New(cfg Config) *Table {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Table{
		cfg:      cfg,
		entries:  make([]Entry, cfg.Entries),
		overflow: make(map[uint64]*Entry),
		bankUsed: make([]uint64, cfg.Banks),
		numSets:  cfg.Entries / cfg.Assoc,
	}
}

// Stats returns a copy of the table's counters.
func (t *Table) Stats() Stats { return t.stats }

// Live returns the number of valid physical entries.
func (t *Table) Live() int { return t.live }

// set computes the set index for a dynamic instance: the paper's hash
// I*k + (w mod k), folded onto the physical sets.
func (t *Table) set(localIdx int, tag isa.Tag) int {
	return (localIdx*t.cfg.K + int(tag.Wave)%t.cfg.K) % t.numSets
}

// ways returns set si's entries.
func (t *Table) ways(si int) []Entry {
	a := t.cfg.Assoc
	return t.entries[si*a : si*a+a]
}

// Outcome describes what happened to an inserted token.
type Outcome int

const (
	// Rejected means the token was refused by k-loop bounding; nothing
	// changes until the matching table releases an entry, so the sender
	// may park the token until then.
	Rejected Outcome = iota
	// RejectedBank means the token lost a same-cycle bank conflict; a
	// retry next cycle can succeed.
	RejectedBank
	// Stored means the token was written and its instruction is still
	// waiting for more operands.
	Stored
	// Completed means the token completed its instance: the returned Entry
	// is ready for the scheduling queue and has been removed from the
	// table.
	Completed
)

// Insert delivers one token to the table at the given cycle.
//
// localIdx is the destination instruction's index within the PE's
// instruction store, required is its operand mask, and overflowPenalty is
// the extra latency charged when the partner entry must be fetched from
// the in-memory matching table. localIdx must name exactly one
// (instruction, thread) pair on this table: the k-loop bound, the
// occupancy counts and the overflow area are all keyed by it.
//
// Insert enforces the per-cycle bank limit (one token per bank per cycle):
// a second token hashing to the same bank in one cycle is RejectedBank.
func (t *Table) Insert(tok isa.Token, localIdx int, required uint8, cycle uint64, overflowPenalty uint64) (Outcome, *Entry) {
	si := t.set(localIdx, tok.Tag)
	bank := si % t.cfg.Banks
	if t.bankUsed[bank] == cycle+1 {
		t.stats.BankRejects++
		return RejectedBank, nil
	}
	set := t.ways(si)

	// Look for the instance in the physical set.
	var slot *Entry
	for w := range set {
		e := &set[w]
		if e.valid && e.Inst == tok.Dest.Inst && e.Tag == tok.Tag {
			slot = e
			break
		}
	}
	o := t.occupancy(localIdx)
	readyAt := cycle + 1
	if slot == nil && o.over > 0 {
		// Check the in-memory overflow table: a hit there is a
		// matching-table miss (the partner was displaced earlier).
		k := overflowKey(localIdx, tok.Tag.Wave)
		if oe, ok := t.overflow[k]; ok {
			t.stats.OverflowHits++
			delete(t.overflow, k)
			o.over--
			slot = t.allocate(si)
			*slot = *oe
			t.free = append(t.free, oe)
			t.occupy(slot)
			readyAt = cycle + 1 + overflowPenalty
		}
	}
	if slot == nil {
		// A fresh dynamic instance: k-loop bounding may refuse it. Tokens
		// from waves older than the youngest resident instance must be
		// admitted (displacing that instance to memory), or loop-control
		// tokens racing ahead would deadlock the pipeline: the bound
		// throttles young waves, never the oldest.
		if int(o.live) >= t.cfg.K {
			if o.stale {
				t.youngest(localIdx)
			}
			if o.youngest <= tok.Tag.Wave {
				t.stats.KRejects++
				return Rejected, nil
			}
			t.evict(t.youngest(localIdx))
		}
		slot = t.allocate(si)
		slot.Inst = tok.Dest.Inst
		slot.LocalIdx = localIdx
		slot.Tag = tok.Tag
		slot.Vals = [3]uint64{}
		slot.Present = 0
		slot.Required = required
		slot.AddrSent = false
		slot.ReadyAt = readyAt
		t.occupy(slot)
	}

	t.bankUsed[bank] = cycle + 1
	t.stats.Inserts++
	slot.Vals[tok.Dest.Port] = tok.Value
	slot.Present |= 1 << tok.Dest.Port
	slot.touched = cycle
	if slot.ReadyAt < readyAt {
		slot.ReadyAt = readyAt
	}
	if slot.Complete() {
		t.stats.Matches++
		t.done = *slot
		t.release(slot)
		return Completed, &t.done
	}
	return Stored, slot
}

// occupancy returns localIdx's occupancy record, growing the table of
// records on an index's first use.
func (t *Table) occupancy(localIdx int) *occupancy {
	if localIdx >= len(t.occ) {
		t.occ = append(t.occ, make([]occupancy, localIdx+1-len(t.occ))...)
	}
	return &t.occ[localIdx]
}

// youngest finds localIdx's physical instance with the highest wave and
// refreshes the cached wave. The hash confines an index's instances to K
// sets (one per wave residue), so the scan touches at most K*assoc
// entries; it runs only when the cached wave is stale or an instance must
// be displaced.
func (t *Table) youngest(localIdx int) *Entry {
	var youngest *Entry
	n := t.cfg.K
	if n > t.numSets {
		n = t.numSets
	}
	base := localIdx * t.cfg.K
	for r := 0; r < n; r++ {
		set := t.ways((base + r) % t.numSets)
		for w := range set {
			e := &set[w]
			if e.valid && e.LocalIdx == localIdx && (youngest == nil || e.Tag.Wave > youngest.Tag.Wave) {
				youngest = e
			}
		}
	}
	o := &t.occ[localIdx]
	o.youngest, o.stale = youngest.Tag.Wave, false
	return youngest
}

// occupy makes a filled-in slot live and counts it for its local index.
func (t *Table) occupy(e *Entry) {
	e.valid = true
	t.live++
	o := t.occupancy(e.LocalIdx)
	if o.live == 0 {
		o.youngest, o.stale = e.Tag.Wave, false
	} else if e.Tag.Wave > o.youngest {
		o.youngest = e.Tag.Wave
	}
	o.live++
}

// evict displaces a live entry to the in-memory overflow table.
func (t *Table) evict(e *Entry) {
	ov := t.newOverflow()
	*ov = *e
	t.overflow[overflowKey(ov.LocalIdx, ov.Tag.Wave)] = ov
	t.occ[ov.LocalIdx].over++
	t.stats.Evictions++
	t.release(e)
}

// Lookup returns the live entry for (inst, tag), or nil. It checks only the
// physical table (used by the speculative-fire path and store decoupling).
func (t *Table) Lookup(inst isa.InstID, localIdx int, tag isa.Tag) *Entry {
	set := t.ways(t.set(localIdx, tag))
	for w := range set {
		e := &set[w]
		if e.valid && e.Inst == inst && e.Tag == tag {
			return e
		}
	}
	return nil
}

// Release removes a live entry (after its instruction dispatched).
func (t *Table) Release(e *Entry) { t.release(e) }

func (t *Table) release(e *Entry) {
	if !e.valid {
		return
	}
	e.valid = false
	t.live--
	o := &t.occ[e.LocalIdx]
	o.live--
	if e.Tag.Wave == o.youngest {
		o.stale = true
	}
	if t.OnRelease != nil {
		t.OnRelease(e.LocalIdx)
	}
}

// allocate finds a free way in set si, evicting the LRU entry to the
// in-memory table if necessary. The returned slot has valid == false; the
// caller fills it in and hands it to occupy.
func (t *Table) allocate(si int) *Entry {
	set := t.ways(si)
	var victim *Entry
	for w := range set {
		e := &set[w]
		if !e.valid {
			return e
		}
		if victim == nil || e.touched < victim.touched {
			victim = e
		}
	}
	// Evict the oldest partial match to the in-memory table.
	t.evict(victim)
	return victim
}

// newOverflow returns a recycled overflow entry, or a fresh one when the
// free list is empty.
func (t *Table) newOverflow() *Entry {
	if n := len(t.free); n > 0 {
		e := t.free[n-1]
		t.free = t.free[:n-1]
		return e
	}
	return new(Entry)
}

// OverflowSize returns how many partial matches live in the in-memory
// table (diagnostic).
func (t *Table) OverflowSize() int { return len(t.overflow) }

// DrainEntries removes and returns every partial match the table holds —
// physical entries in set order, then in-memory overflow entries in
// deterministic (instruction, tag) order. Used when a PE is mapped out:
// the survivors adopt its partial matches. The release callback is not
// invoked (the table's owner is being dismantled, not making progress).
func (t *Table) DrainEntries() []Entry {
	var out []Entry
	for i := range t.entries {
		if e := &t.entries[i]; e.valid {
			ec := *e
			ec.valid = false
			out = append(out, ec)
			e.valid = false
			t.live--
		}
	}
	if len(t.overflow) > 0 {
		over := make([]*Entry, 0, len(t.overflow))
		for _, oe := range t.overflow {
			over = append(over, oe)
		}
		sort.Slice(over, func(i, j int) bool {
			a, b := over[i], over[j]
			if a.Inst != b.Inst {
				return a.Inst < b.Inst
			}
			if a.Tag.Thread != b.Tag.Thread {
				return a.Tag.Thread < b.Tag.Thread
			}
			return a.Tag.Wave < b.Tag.Wave
		})
		for _, oe := range over {
			out = append(out, *oe)
			t.free = append(t.free, oe)
		}
		clear(t.overflow)
	}
	clear(t.occ)
	return out
}

// Adopt installs a partial match drained from another PE's table,
// preserving its accumulated operands and store-decoupling state
// (AddrSent survives the migration, so a decoupled store does not
// re-send its address half). localIdx is the instruction's index in the
// adopting PE's store and, as for Insert, must name exactly one
// (instruction, thread) pair on this table; readyAt defers
// schedulability by the migration penalty. Adoption bypasses bank limits
// and the k-loop bound — it models a repair action, not an arrival.
func (t *Table) Adopt(e Entry, localIdx int, readyAt uint64) {
	si := t.set(localIdx, e.Tag)
	slot := t.allocate(si)
	*slot = e
	slot.LocalIdx = localIdx
	if slot.ReadyAt < readyAt {
		slot.ReadyAt = readyAt
	}
	t.occupy(slot)
}
