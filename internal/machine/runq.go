package machine

// runq is the scheduler's event-ordered run queue: a binary min-heap of
// runnable cores keyed by (cycle, coreID). The run loop pops the reference
// schedule's pick in O(log cores), reads the strict quantum budget off the
// new minimum — the highest cycle at which the popped core stays the pick,
// and the only dispatch window the scheduler has — and re-enqueues the core
// at its cycle once the quantum ends, or not at all once it halts.
//
// The ordering invariant is exactly the reference per-instruction schedule:
// the minimum-cycle runnable core runs, ties to the lowest core ID. Every
// run, crash runs included, follows this one schedule. The heap
// is rebuilt on every run() entry (cores may have been resumed or recovered
// between segments) and is never consulted on paths that exit the loop, so a
// crash or fatal return can leave it stale.
type runq struct {
	heap []*core
	ops  uint64 // lifetime pushes + pops (Stats.SchedQueueOps)
}

// coreLess orders the heap by (cycle, coreID) — the reference schedule's
// pick order.
func coreLess(a, b *core) bool {
	return keyLess(a.cycle, a.id, b.cycle, b.id)
}

// keyLess orders two schedule keys (cycle, coreID).
func keyLess(ac uint64, aid int, bc uint64, bid int) bool {
	return ac < bc || (ac == bc && aid < bid)
}

// reset rebuilds the queue from the machine's runnable cores.
func (q *runq) reset(cores []*core) {
	q.heap = q.heap[:0]
	for _, c := range cores {
		if !c.halted {
			q.push(c)
		}
	}
}

// push enqueues core c at its current cycle.
func (q *runq) push(c *core) {
	q.ops++
	q.heap = append(q.heap, c)
	i := len(q.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !coreLess(q.heap[i], q.heap[p]) {
			break
		}
		q.heap[i], q.heap[p] = q.heap[p], q.heap[i]
		i = p
	}
}

// pop removes and returns the scheduler's pick (nil when empty).
func (q *runq) pop() *core {
	n := len(q.heap)
	if n == 0 {
		return nil
	}
	q.ops++
	top := q.heap[0]
	last := q.heap[n-1]
	q.heap[n-1] = nil
	q.heap = q.heap[:n-1]
	if n > 1 {
		q.heap[0] = last
		q.siftDown(0)
	}
	return top
}

func (q *runq) siftDown(i int) {
	n := len(q.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && coreLess(q.heap[r], q.heap[l]) {
			small = r
		}
		if !coreLess(q.heap[small], q.heap[i]) {
			return
		}
		q.heap[i], q.heap[small] = q.heap[small], q.heap[i]
		i = small
	}
}

// pushpop re-enqueues c and removes the new minimum in one pass. When c is
// still the minimum (a core running ahead of the field, or the last core
// standing), the heap is untouched; otherwise the root swaps out and c sinks
// from the top — half the work of a pop following a push, and the loop's
// steady state in tight cycle lockstep.
func (q *runq) pushpop(c *core) *core {
	q.ops += 2
	if len(q.heap) == 0 || coreLess(c, q.heap[0]) {
		return c
	}
	top := q.heap[0]
	q.heap[0] = c
	q.siftDown(0)
	return top
}

// peek returns the queue minimum without removing it (nil when empty).
func (q *runq) peek() *core {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}
