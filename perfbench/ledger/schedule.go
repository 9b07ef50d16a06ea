package ledger

import (
	"math/rand"
	"time"
)

// PoissonSchedule returns the send offsets of an open-loop load: arrivals of
// a Poisson process at rate per second, from 0 up to (not including) dur.
// The gaps are exponential draws from a generator seeded with seed, so one
// seed always yields the same schedule.
func PoissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	if rate <= 0 || dur <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}
