package sim

import "slices"

// ring is a growable power-of-two circular buffer of component indices —
// the storage behind the per-cycle work lists. Pushes during a drain land
// behind the drain's snapshot, so producers can arm components while the
// scheduler is iterating without invalidating the iteration.
type ring struct {
	buf  []int32
	head int
	n    int
}

func (r *ring) len() int { return r.n }

func (r *ring) push(v int32) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring) popFront() int32 {
	v := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// grow doubles the buffer, unwrapping the live region to the front.
func (r *ring) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 16
	}
	nb := make([]int32, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}

// activeSet is one scheduling phase's work list: the set of component
// indices with (potentially) actionable state. arm is idempotent — a
// component already in the set is not enqueued twice — so every queue-push
// site can arm unconditionally. drain snapshots the current membership in
// ascending index order (the full-scan loop's visit order, which the
// equivalence guarantee depends on) and clears the armed flags, so work
// discovered during the drain re-arms into the next drain.
type activeSet struct {
	work  ring
	armed []bool
	out   []int32 // drain scratch, reused across cycles
}

func newActiveSet(n int) *activeSet {
	return &activeSet{armed: make([]bool, n)}
}

func (s *activeSet) arm(i int32) {
	if s.armed[i] {
		return
	}
	s.armed[i] = true
	s.work.push(i)
}

// drain returns the armed indices sorted ascending and empties the set.
// The returned slice is valid until the next drain.
func (s *activeSet) drain() []int32 {
	n := s.work.len()
	s.out = s.out[:0]
	for k := 0; k < n; k++ {
		i := s.work.popFront()
		s.armed[i] = false
		s.out = append(s.out, i)
	}
	slices.Sort(s.out)
	return s.out
}

// fifo is a slice-backed queue with an amortized-O(1) pop-front.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) empty() bool { return q.len() == 0 }

// peek returns the i-th element from the front.
func (q *fifo[T]) peek(i int) *T { return &q.items[q.head+i] }

func (q *fifo[T]) popFront() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	q.reclaim()
	return v
}

// reclaim moves the live elements back to the start of the buffer once
// the freed prefix outgrows them.
func (q *fifo[T]) reclaim() {
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
}

// remove deletes the i-th element from the front, preserving order. It
// shifts whichever side of the removal point is shorter: dispatch takes
// entries from the first few slots of a possibly deep scheduling queue, so
// shifting the prefix (and banking the freed slot in head, where pushFront
// reclaims it) costs O(i) instead of an O(queue) tail copy.
func (q *fifo[T]) remove(i int) T {
	idx := q.head + i
	v := q.items[idx]
	var zero T
	if 2*i < q.len() {
		copy(q.items[q.head+1:idx+1], q.items[q.head:idx])
		q.items[q.head] = zero
		q.head++
		q.reclaim()
		return v
	}
	copy(q.items[idx:], q.items[idx+1:])
	q.items[len(q.items)-1] = zero
	q.items = q.items[:len(q.items)-1]
	return v
}

// pushFront inserts at the head (used for priority bypass entries and
// reinjection bursts). When the head has no slack it opens room for many
// prepends at once, so a burst costs amortized O(1) per token instead of
// an O(queue) shift each.
func (q *fifo[T]) pushFront(v T) {
	if q.head == 0 {
		n := len(q.items)
		slack := n/4 + 8
		if cap(q.items) >= n+slack {
			// Spare tail capacity: shift in place instead of allocating.
			q.items = q.items[:n+slack]
			copy(q.items[slack:], q.items[:n])
			clear(q.items[:slack])
		} else {
			items := make([]T, slack+n)
			copy(items[slack:], q.items)
			q.items = items
		}
		q.head = slack
	}
	q.head--
	q.items[q.head] = v
}

// removeSorted removes the elements at the given strictly ascending
// positions, preserving the order of the rest. Each survivor in front of
// the last removed position moves once, by the number of removals behind
// it, so a scan that drops many of the elements it visits costs
// O(last position) in all, where a remove per dropped element costs
// O(position) each.
func (q *fifo[T]) removeSorted(pos []int) {
	n := len(pos)
	if n == 0 {
		return
	}
	for k := n - 1; k >= 0; k-- {
		lo := 0
		if k > 0 {
			lo = pos[k-1] + 1
		}
		shift := n - k
		copy(q.items[q.head+lo+shift:q.head+pos[k]+shift], q.items[q.head+lo:q.head+pos[k]])
	}
	clear(q.items[q.head : q.head+n])
	q.head += n
	q.reclaim()
}
