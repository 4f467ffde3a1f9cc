package sim

// eventHeap is an index-based binary min-heap of event values ordered by
// (at, seq). It deliberately does not use container/heap: that API costs
// one heap allocation per pushed *event plus an interface boxing on every
// Push/Pop, right on the dispatch hot path. Here events are stored inline
// in a slice whose spare capacity acts as the free pool — a steady-state
// simulation pushes and pops with zero allocations (enforced by
// TestDispatchPathZeroAlloc).
type eventHeap struct {
	ev []event
}

// shrinkMinCap is the capacity below which pop never reallocates: burst
// sizes this small are normal working-set churn, and shrinking under the
// alloc-free steady state would defeat the pool.
const shrinkMinCap = 1024

func (h *eventHeap) Len() int { return len(h.ev) }

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.ev[i], &h.ev[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e in O(log n) with no allocation beyond amortized slice
// growth.
func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	h.up(len(h.ev) - 1)
}

// pop removes and returns the earliest event. The vacated tail slot is
// zeroed so the pool's spare capacity retains no *Proc or callback
// references, and after a large burst drains the backing array is shrunk
// so long runs don't hold peak-sized arrays forever.
func (h *eventHeap) pop() event {
	ev := h.ev
	top := ev[0]
	n := len(ev) - 1
	ev[0] = ev[n]
	ev[n] = event{}
	h.ev = ev[:n]
	if n > 1 {
		h.down(0)
	}
	if c := cap(h.ev); c >= shrinkMinCap && n <= c/4 {
		shrunk := make([]event, n, c/2)
		copy(shrunk, h.ev)
		h.ev = shrunk
	}
	return top
}

func (h *eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *eventHeap) down(i int) {
	n := len(h.ev)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && h.less(r, l) {
			least = r
		}
		if !h.less(least, i) {
			return
		}
		h.ev[i], h.ev[least] = h.ev[least], h.ev[i]
		i = least
	}
}
