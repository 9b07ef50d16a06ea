package core

// Property test for the frontier of the unifying search: the bucketQueue
// promises that pops are nondecreasing in cost and FIFO among equal costs.
// TestBucketQueueOrder checks it against a model of the pending multiset.

import (
	"math/rand"
	"testing"
)

// TestBucketQueueOrder drives the bucket queue through random monotone
// push/pop interleavings (successor costs only ever grow, as in the search)
// and checks both halves of its contract: nondecreasing cost order, FIFO
// among equal costs.
func TestBucketQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type tagged struct {
		cost, seq int
	}
	for round := 0; round < 200; round++ {
		maxStep := 1 + rng.Intn(60)
		var q bucketQueue
		q.reset(maxStep)
		// Model: the multiset of pushed-but-unpopped configurations with
		// their push sequence numbers.
		pending := map[*config]tagged{}
		seq, floor, lastCost, lastSeq := 0, 0, -1, -1
		for step := 0; step < 500; step++ {
			if rng.Intn(3) != 0 || len(pending) == 0 {
				// The search pushes successors of the configuration most
				// recently popped: cost in [floor, floor+maxStep]. The very
				// first push is the start configuration at the minimum cost,
				// which anchors the queue's monotone drain level — the
				// precondition the search establishes by construction.
				cost := floor + rng.Intn(maxStep+1)
				if seq == 0 {
					cost = floor
				}
				c := &config{cost: cost}
				q.push(c)
				pending[c] = tagged{cost: c.cost, seq: seq}
				seq++
				continue
			}
			c := q.pop()
			if c == nil {
				t.Fatalf("round %d step %d: pop returned nil with %d pending", round, step, len(pending))
			}
			tag, ok := pending[c]
			if !ok {
				t.Fatalf("round %d step %d: pop returned unknown configuration", round, step)
			}
			delete(pending, c)
			// Minimality: nothing pending is cheaper.
			for _, other := range pending {
				if other.cost < tag.cost {
					t.Fatalf("round %d step %d: popped cost %d while cost %d pending",
						round, step, tag.cost, other.cost)
				}
			}
			// FIFO among equal costs: within one cost level, sequence
			// numbers only grow.
			if tag.cost == lastCost && tag.seq < lastSeq {
				t.Fatalf("round %d step %d: FIFO violated at cost %d (seq %d after %d)",
					round, step, tag.cost, tag.seq, lastSeq)
			}
			lastCost, lastSeq = tag.cost, tag.seq
			floor = tag.cost
		}
		// Drain and check the suffix too.
		for len(pending) > 0 {
			c := q.pop()
			tag := pending[c]
			delete(pending, c)
			for _, other := range pending {
				if other.cost < tag.cost {
					t.Fatalf("round %d drain: popped cost %d while cost %d pending", round, tag.cost, other.cost)
				}
			}
			if tag.cost == lastCost && tag.seq < lastSeq {
				t.Fatalf("round %d drain: FIFO violated at cost %d", round, tag.cost)
			}
			lastCost, lastSeq = tag.cost, tag.seq
		}
		if q.pop() != nil {
			t.Fatalf("round %d: pop from empty queue returned a configuration", round)
		}
		if q.size() != 0 {
			t.Fatalf("round %d: size %d after drain", round, q.size())
		}
	}
}
