package core

import "lrcex/internal/faults"

// The frontier and visited set of the unifying search.
//
// The frontier is bucketQueue, a monotone bucket priority queue: action costs
// are small bounded positive integers (Shift=1 … RevProdStep+DupProdStep=60
// under the default model) and the search is monotone — every successor costs
// at least as much as the configuration being expanded — so a circular array
// of FIFO buckets indexed by cost mod (maxStep+1) gives O(1) push and pop with
// no sift traffic at all. Equal-cost configurations pop in push order, a
// deterministic tie-break that makes every report a pure function of the
// grammar and the options. CostModel.withDefaults guarantees the positive
// increments the ring relies on.
//
// visitedTable is the dedup set: the key is the 64-bit combined rolling hash
// of a configuration (both item sequences plus the stage markers), and every
// hash match is confirmed by a structural comparison — dedup semantics are
// exactly the slice implementation's, without minting a byte string per
// push. The table is one flat power-of-two slot array with linear probing,
// so a probe is one hashed load plus, on a hash match, the structural check,
// and a new configuration costs one probe. The slot array lives in the
// worker's searchMem, is cleared in place between conflicts and only ever
// grows by doubling, so recording a configuration allocates nothing in the
// steady state. The search probes in batches — one expansion's successors at
// a time — touching every home slot before resolving any (see
// unifySearch.flush).

// bqChunkSize is the capacity of one bucket storage chunk.
const bqChunkSize = 256

// bqChunk is a fixed-size block of bucket storage. Buckets are FIFO lists of
// chunks drawn from one free list shared by the whole ring, so the queue's
// memory tracks its peak size rather than the sum of every bucket's own
// high-water mark, which across conflicts grows to several times the peak.
type bqChunk struct {
	items [bqChunkSize]*config
	next  *bqChunk
}

// bqBucket is one FIFO bucket: pops read head.items[hi], pushes write
// tail.items[ti].
type bqBucket struct {
	head, tail *bqChunk
	hi, ti     int
}

// bucketQueue is a monotone bucket priority queue over configuration cost.
type bucketQueue struct {
	buckets []bqBucket
	span    int // len(buckets) == max cost increment + 1
	cur     int // cost currently being drained; never decreases while nonempty
	n       int
	peak    int // high-water mark of n, for SearchStats
	free    *bqChunk
}

// reset sizes the ring for cost increments of at most maxStep and empties
// the buckets, keeping their chunks on the free list. maxStep must be
// positive.
func (q *bucketQueue) reset(maxStep int) {
	for i := range q.buckets {
		b := &q.buckets[i]
		for b.head != nil {
			c := b.head
			b.head = c.next
			clear(c.items[:]) // pending configurations, for GC hygiene
			q.release(c)
		}
		*b = bqBucket{}
	}
	q.span = maxStep + 1
	if q.span > len(q.buckets) {
		q.buckets = make([]bqBucket, q.span)
	}
	q.cur, q.n, q.peak = 0, 0, 0
}

// release returns an emptied chunk to the free list.
func (q *bucketQueue) release(c *bqChunk) {
	c.next = q.free
	q.free = c
}

func (q *bucketQueue) size() int     { return q.n }
func (q *bucketQueue) peakSize() int { return q.peak }

// push enqueues c. Costs must lie within a window of span consecutive values
// containing the minimum pending cost, which the cost model guarantees:
// successors of a cost-d configuration cost between d and d+maxStep. A push
// below the current drain level lowers it — this happens legitimately when
// the frontier drains empty mid-expansion (the last configuration was popped
// and its successors are being pushed one by one, not in cost order).
func (q *bucketQueue) push(c *config) {
	if q.n == 0 || c.cost < q.cur {
		q.cur = c.cost
	}
	b := &q.buckets[c.cost%q.span]
	if b.tail == nil || b.ti == bqChunkSize {
		ch := q.free
		if ch == nil {
			ch = &bqChunk{}
		} else {
			q.free = ch.next
			ch.next = nil
		}
		if b.tail == nil {
			b.head, b.hi = ch, 0
		} else {
			b.tail.next = ch
		}
		b.tail, b.ti = ch, 0
	}
	b.tail.items[b.ti] = c
	b.ti++
	q.n++
	if q.n > q.peak {
		q.peak = q.n
	}
}

// pop removes and returns the minimum-cost configuration (FIFO among equal
// costs), or nil when the frontier is empty.
func (q *bucketQueue) pop() *config {
	if q.n == 0 {
		return nil
	}
	for {
		b := &q.buckets[q.cur%q.span]
		if b.head == nil {
			q.cur++
			continue
		}
		h := b.head
		c := h.items[b.hi]
		h.items[b.hi] = nil // release for GC
		b.hi++
		if h == b.tail && b.hi == b.ti {
			// Bucket drained.
			b.head, b.tail, b.hi, b.ti = nil, nil, 0, 0
			q.release(h)
		} else if b.hi == bqChunkSize {
			b.head, b.hi = h.next, 0
			q.release(h)
		}
		q.n--
		return c
	}
}

// visSlot is one slot of the visited table; c == nil marks it empty.
type visSlot struct {
	h uint64
	c *config
}

// visInitSlots is the slot count of a fresh visited table.
const visInitSlots = 1024

// visitedTable is the hashed dedup set of the unifying search: a flat,
// power-of-two slot array with linear probing, at most ¾ full.
type visitedTable struct {
	slots []visSlot
	n     int
	buf   []node // scratch for structural comparisons
	sink  uint64 // receives touch's loads so they are not optimized away
}

// reset empties the table in place, keeping its slot array: like the
// arenas, the table converges to the high-water size of its searches.
func (v *visitedTable) reset() {
	if v.slots == nil {
		v.slots = make([]visSlot, visInitSlots)
	} else if v.n > 0 {
		clear(v.slots)
	}
	v.n = 0
}

// touch loads the home slot of hash h. The unifying search touches a whole
// expansion's successors before probing any of them, so their cache misses
// overlap instead of serializing one probe at a time.
func (v *visitedTable) touch(h uint64) {
	v.sink += v.slots[int(h)&(len(v.slots)-1)].h
}

// find probes for a configuration structurally equal to c under hash h. It
// returns the matching slot and true, or the empty slot where c belongs and
// false. Equality ignores the derivation lists and cost, exactly as the
// string key did: two configurations with the same item sequences and stage
// markers are the same search state. Every hash match is confirmed
// structurally, so colliding hashes never merge distinct states.
func (v *visitedTable) find(h uint64, c *config) (int, bool) {
	mask := len(v.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := &v.slots[i]
		if s.c == nil {
			return i, false
		}
		if s.h == h && v.equal(s.c, c) {
			return i, true
		}
	}
}

// insert stores c under hash h in slot i, the empty slot find just returned
// for it, and doubles the table once it is more than ¾ full.
func (v *visitedTable) insert(i int, h uint64, c *config) {
	v.slots[i] = visSlot{h: h, c: c}
	if v.n++; 4*v.n > 3*len(v.slots) {
		v.grow()
	}
}

// grow doubles the slot array and rehashes every entry. It carries a faults
// injection point (simulated table corruption); like the object arenas, only
// growth pays for the check, never the steady-state probe.
func (v *visitedTable) grow() {
	faults.PanicAt(faults.CoreVisitedGrow)
	old := v.slots
	v.slots = make([]visSlot, 2*len(old))
	mask := len(v.slots) - 1
	for _, s := range old {
		if s.c == nil {
			continue
		}
		i := int(s.h) & mask
		for v.slots[i].c != nil {
			i = (i + 1) & mask
		}
		v.slots[i] = s
	}
}

func (v *visitedTable) equal(a, b *config) bool {
	if a.orig1 != b.orig1 || a.orig2 != b.orig2 {
		return false
	}
	var ok bool
	if ok, v.buf = sameItems(a.s1, b.s1, v.buf); !ok {
		return false
	}
	ok, v.buf = sameItems(a.s2, b.s2, v.buf)
	return ok
}
