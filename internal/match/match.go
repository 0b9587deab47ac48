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

type key struct {
	inst isa.InstID
	tag  isa.Tag
}

// Table is one PE's matching table plus its in-memory overflow area.
type Table struct {
	cfg      Config
	sets     [][]Entry // [set][way]
	overflow map[key]*Entry
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

	// OnRelease, when set, is invoked whenever an entry frees. Senders
	// holding k-rejected tokens for that (instruction, thread) use it to
	// know the quota may have opened.
	OnRelease func(inst isa.InstID, thread uint32)
}

// New creates a matching table.
func New(cfg Config) *Table {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.Entries / cfg.Assoc
	sets := make([][]Entry, numSets)
	for i := range sets {
		sets[i] = make([]Entry, cfg.Assoc)
	}
	return &Table{
		cfg:      cfg,
		sets:     sets,
		overflow: make(map[key]*Entry),
		bankUsed: make([]uint64, cfg.Banks),
	}
}

// Stats returns a copy of the table's counters.
func (t *Table) Stats() Stats { return t.stats }

// Live returns the number of valid physical entries.
func (t *Table) Live() int { return t.live }

// set computes the set index for a dynamic instance: the paper's hash
// I*k + (w mod k), folded onto the physical sets.
func (t *Table) set(localIdx int, tag isa.Tag) int {
	k := t.cfg.K
	return (localIdx*k + int(tag.Wave)%k) % len(t.sets)
}

// Bank returns the arrival bank for a dynamic instance.
func (t *Table) Bank(localIdx int, tag isa.Tag) int {
	return t.set(localIdx, tag) % t.cfg.Banks
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
// the in-memory matching table.
//
// Insert enforces the per-cycle bank limit (one token per bank per cycle):
// a second token hashing to the same bank in one cycle is Rejected.
func (t *Table) Insert(tok isa.Token, localIdx int, required uint8, cycle uint64, overflowPenalty uint64) (Outcome, *Entry) {
	bank := t.Bank(localIdx, tok.Tag)
	if t.bankUsed[bank] == cycle+1 {
		t.stats.BankRejects++
		return RejectedBank, nil
	}

	si := t.set(localIdx, tok.Tag)
	set := t.sets[si]

	// Look for the instance in the physical set.
	var slot *Entry
	for w := range set {
		e := &set[w]
		if e.valid && e.Inst == tok.Dest.Inst && e.Tag == tok.Tag {
			slot = e
			break
		}
	}
	readyAt := cycle + 1
	if slot == nil && len(t.overflow) > 0 {
		// Check the in-memory overflow table: a hit there is a
		// matching-table miss (the partner was displaced earlier).
		k := key{inst: tok.Dest.Inst, tag: tok.Tag}
		if oe, ok := t.overflow[k]; ok {
			t.stats.OverflowHits++
			delete(t.overflow, k)
			slot = t.allocate(si)
			*slot = *oe
			t.free = append(t.free, oe)
			slot.valid = true
			t.live++
			readyAt = cycle + 1 + overflowPenalty
		}
	}
	if slot == nil {
		// A fresh dynamic instance: k-loop bounding may refuse it. Tokens
		// from waves older than the youngest resident instance must be
		// admitted (displacing that instance to memory), or loop-control
		// tokens racing ahead would deadlock the pipeline: the bound
		// throttles young waves, never the oldest.
		count, youngest := t.scanInstances(tok.Dest.Inst, localIdx, tok.Tag.Thread)
		if count >= t.cfg.K {
			if youngest == nil || youngest.Tag.Wave <= tok.Tag.Wave {
				t.stats.KRejects++
				return Rejected, nil
			}
			ov := t.newOverflow()
			*ov = *youngest
			t.overflow[key{inst: ov.Inst, tag: ov.Tag}] = ov
			t.stats.Evictions++
			t.release(youngest)
		}
		slot = t.allocate(si)
		slot.valid = true
		slot.Inst = tok.Dest.Inst
		slot.LocalIdx = localIdx
		slot.Tag = tok.Tag
		slot.Vals = [3]uint64{}
		slot.Present = 0
		slot.Required = required
		slot.AddrSent = false
		slot.ReadyAt = readyAt
		t.live++
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

// scanInstances counts the live instances of (inst, thread) and finds the
// one with the highest wave. The hash confines an instruction's instances
// to K sets (one per wave residue), so the scan touches at most K*assoc
// entries.
func (t *Table) scanInstances(inst isa.InstID, localIdx int, thread uint32) (int, *Entry) {
	count := 0
	var youngest *Entry
	n := t.cfg.K
	if n > len(t.sets) {
		n = len(t.sets)
	}
	base := localIdx * t.cfg.K
	for r := 0; r < n; r++ {
		set := t.sets[(base+r)%len(t.sets)]
		for w := range set {
			e := &set[w]
			if e.valid && e.Inst == inst && e.Tag.Thread == thread {
				count++
				if youngest == nil || e.Tag.Wave > youngest.Tag.Wave {
					youngest = e
				}
			}
		}
	}
	return count, youngest
}

// Lookup returns the live entry for (inst, tag), or nil. It checks only the
// physical table (used by the speculative-fire path and store decoupling).
func (t *Table) Lookup(inst isa.InstID, localIdx int, tag isa.Tag) *Entry {
	set := t.sets[t.set(localIdx, tag)]
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
	if t.OnRelease != nil {
		t.OnRelease(e.Inst, e.Tag.Thread)
	}
}

// allocate finds a free way in set si, evicting the LRU entry to the
// in-memory table if necessary. The returned slot has valid == false and
// the caller restores the occupancy accounting.
func (t *Table) allocate(si int) *Entry {
	set := t.sets[si]
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
	ov := t.newOverflow()
	*ov = *victim
	t.overflow[key{inst: ov.Inst, tag: ov.Tag}] = ov
	t.stats.Evictions++
	t.release(victim)
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
	for si := range t.sets {
		for w := range t.sets[si] {
			e := &t.sets[si][w]
			if e.valid {
				ec := *e
				ec.valid = false
				out = append(out, ec)
				e.valid = false
				t.live--
			}
		}
	}
	if len(t.overflow) > 0 {
		keys := make([]key, 0, len(t.overflow))
		for k := range t.overflow {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.inst != b.inst {
				return a.inst < b.inst
			}
			if a.tag.Thread != b.tag.Thread {
				return a.tag.Thread < b.tag.Thread
			}
			return a.tag.Wave < b.tag.Wave
		})
		for _, k := range keys {
			oe := t.overflow[k]
			out = append(out, *oe)
			t.free = append(t.free, oe)
		}
		t.overflow = make(map[key]*Entry)
	}
	return out
}

// Adopt installs a partial match drained from another PE's table,
// preserving its accumulated operands and store-decoupling state
// (AddrSent survives the migration, so a decoupled store does not
// re-send its address half). localIdx is the instruction's index in the
// adopting PE's store; readyAt defers schedulability by the migration
// penalty. Adoption bypasses bank limits — it models a repair action,
// not an arrival.
func (t *Table) Adopt(e Entry, localIdx int, readyAt uint64) {
	si := t.set(localIdx, e.Tag)
	slot := t.allocate(si)
	*slot = e
	slot.LocalIdx = localIdx
	slot.valid = true
	if slot.ReadyAt < readyAt {
		slot.ReadyAt = readyAt
	}
	t.live++
}
