package fuzz

import "hash/fnv"

// Coverage signal: one 64-bit point per observed joint configuration.
//
// A point is FNV-64a over (StateKey_t, StateKey_r, bucket(data in-transit),
// bucket(ack in-transit)). State keys are the protocols' own canonical
// encodings, so the signal is exact on endpoint state; channel occupancy is
// log-bucketed, because the raw count is unbounded (a pumping input would
// otherwise mint "new coverage" forever by stranding one more copy) while
// the occupancy *regime* — empty, one copy, a few, many — is what changes
// protocol behaviour.

// occBucket log-buckets an in-transit count: 0, 1, 2, 3–4, 5–8, 9–16, …
func occBucket(n int) int {
	if n <= 2 {
		return n
	}
	b := 2
	for top := 2; top < n; top *= 2 {
		b++
	}
	return b
}

// livelockPoint hashes a certified livelock's cycle length (in driver
// operations, log-bucketed like channel occupancy) into the coverage space.
// It rewards campaigns for reaching structurally different livelocks — a
// longer pumping cycle is a different finding, not a repeat — without letting
// cycle length mint unbounded points.
func livelockPoint(cycleOps int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte("livelock-cycle"))
	_, _ = h.Write([]byte{0, byte(occBucket(cycleOps))})
	return h.Sum64()
}

// coverSet is a set of coverage points. It is not synchronized: workers own
// private sets, and the master set lives in the corpus-merger goroutine.
type coverSet map[uint64]struct{}

// addAll inserts the points and reports how many were new.
func (c coverSet) addAll(points []uint64) int {
	fresh := 0
	for _, p := range points {
		if _, ok := c[p]; !ok {
			c[p] = struct{}{}
			fresh++
		}
	}
	return fresh
}

// countNew reports how many of the points are absent without inserting.
func (c coverSet) countNew(points []uint64) int {
	fresh := 0
	seen := make(map[uint64]struct{}, len(points))
	for _, p := range points {
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		if _, ok := c[p]; !ok {
			fresh++
		}
	}
	return fresh
}
