package remote

import (
	"context"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// Policy is a shared exponential-backoff-with-jitter schedule. Every retry
// loop that talks to the coordinator — register, lease, heartbeat, complete,
// and the DFS gateway client — draws its sleeps from one Policy, so a
// coordinator restart produces a decorrelated trickle of reconnects instead
// of a synchronized stampede of naked 100ms retries.
//
// The schedule is the standard one: attempt n sleeps Base·Multiplier^n,
// capped at Max, with the final value drawn uniformly from
// [d·(1-Jitter), d]. Jitter pulls sleeps *down* from the deterministic
// ceiling, so Max remains a hard bound on any single sleep.
type Policy struct {
	// Base is the first sleep. Defaults to 50ms.
	Base time.Duration
	// Max caps every sleep. Defaults to 2s.
	Max time.Duration
	// Multiplier grows the sleep per attempt. Defaults to 2.
	Multiplier float64
	// Jitter in (0,1] is the fraction of each sleep that is randomized.
	// Zero inherits the default 0.5 — the safe choice for a fleet —
	// JitterNone disables it (tests that need exact schedules).
	Jitter float64
}

// JitterNone as a Policy.Jitter value disables jitter entirely.
const JitterNone = -1.0

// DefaultPolicy is the schedule the worker loops and gateway client use
// when none is configured: 50ms doubling to a 2s ceiling, half jittered.
var DefaultPolicy = Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second, Multiplier: 2, Jitter: 0.5}

// withDefaults fills zero fields from DefaultPolicy.
func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = DefaultPolicy.Base
	}
	if p.Max <= 0 {
		p.Max = DefaultPolicy.Max
	}
	if p.Multiplier < 1 {
		p.Multiplier = DefaultPolicy.Multiplier
	}
	switch {
	case p.Jitter == 0:
		p.Jitter = DefaultPolicy.Jitter
	case p.Jitter < 0:
		p.Jitter = 0 // JitterNone
	case p.Jitter > 1:
		p.Jitter = 1
	}
	return p
}

// Backoff is one retry loop's stateful walk along a Policy's schedule. Not
// safe for concurrent use; each loop owns its own (see Policy.Start).
type Backoff struct {
	policy  Policy
	attempt int
	rng     *rand.Rand
}

// Start begins a schedule whose jitter stream is derived from seed —
// deterministic for a fixed seed, decorrelated across seeds. Callers seed
// with their identity (worker name, client key) so a fleet restarting
// together fans out instead of thundering back in lockstep.
func (p Policy) Start(seed uint64) *Backoff {
	return &Backoff{
		policy: p.withDefaults(),
		rng:    rand.New(rand.NewSource(int64(seed))), // explicitly seeded: jitter stream, not data-plane
	}
}

// SeedString hashes an identity string into a Start seed.
func SeedString(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// Next returns the sleep for the current attempt and advances the schedule.
func (b *Backoff) Next() time.Duration {
	p := b.policy
	d := float64(p.Base)
	for i := 0; i < b.attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.Max) {
			d = float64(p.Max)
			break
		}
	}
	if d > float64(p.Max) {
		d = float64(p.Max)
	}
	b.attempt++
	if p.Jitter > 0 {
		d -= b.rng.Float64() * p.Jitter * d
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// Reset rewinds the schedule to the first attempt — called after a success
// so the next failure starts cheap again.
func (b *Backoff) Reset() { b.attempt = 0 }

// Sleep blocks for the next scheduled backoff or until ctx ends. It
// reports false when ctx ended first.
func (b *Backoff) Sleep(ctx context.Context) bool {
	t := time.NewTimer(b.Next())
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// retrySeeds hands out decorrelated sub-seeds for components that share one
// identity seed (a worker's register loop, its gateway client, ...) without
// the components consuming each other's jitter streams.
type retrySeeds struct {
	mu   sync.Mutex
	rng  *rand.Rand
	base uint64
}

func newRetrySeeds(base uint64) *retrySeeds {
	return &retrySeeds{rng: rand.New(rand.NewSource(int64(base))), base: base} // explicitly seeded
}

func (s *retrySeeds) next() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Uint64()
}
