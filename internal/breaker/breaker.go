// Package breaker is a minimal three-state circuit breaker. Its one user is
// the serving tier's NLP-annotator health check behind /v1/label (CI fails
// on any other non-test import). It exists so the server can stop hammering
// a dependency that is demonstrably down and switch to a cheaper degraded
// path, then probe its way back once the dependency recovers.
//
// States follow the classic discipline:
//
//	closed    — traffic flows; consecutive failures are counted.
//	open      — Threshold consecutive failures tripped the breaker; Allow
//	            answers false until Cooldown elapses.
//	half-open — one probe is let through after Cooldown; its Success closes
//	            the breaker, its Failure reopens it for another Cooldown.
//
// The breaker is deliberately tiny: no rolling windows, no error-rate math.
// Consecutive-failure counting is the right shape for the dependency here
// (a model server is either reachable or it is not), and it
// keeps state transitions easy to reason about under test.
package breaker

import (
	"sync"
	"time"
)

// State is the breaker's position.
type State int

const (
	// Closed passes traffic and counts consecutive failures.
	Closed State = iota
	// Open fails fast; no traffic until the cooldown elapses.
	Open
	// HalfOpen lets exactly one probe through to test recovery.
	HalfOpen
)

// String renders the state for logs and metric help text.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	default:
		return "half-open"
	}
}

// Breaker is a consecutive-failure circuit breaker. Construct with New; the
// zero value is not usable. Safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	onChange  func(State)

	mu       sync.Mutex
	state    State     // guarded by mu
	failures int       // guarded by mu; consecutive failures while closed
	openedAt time.Time // guarded by mu; when the breaker last tripped
	probing  bool      // guarded by mu; a half-open probe is in flight
}

// Option tweaks a Breaker at construction.
type Option func(*Breaker)

// WithClock swaps the breaker's clock, making cooldown expiry deterministic
// in tests.
//
//drybellvet:testapi — breaker tests step a fake clock through cooldowns; to fold into one injected clock
func WithClock(now func() time.Time) Option {
	return func(b *Breaker) { b.now = now }
}

// WithOnChange registers a callback invoked (outside the lock) whenever the
// breaker changes state — the hook that keeps a state gauge current.
func WithOnChange(fn func(State)) Option {
	return func(b *Breaker) { b.onChange = fn }
}

// New builds a closed breaker that trips after threshold consecutive
// failures and probes again cooldown after tripping. A threshold < 1 is
// clamped to 1; a cooldown <= 0 defaults to 5s.
func New(threshold int, cooldown time.Duration, opts ...Option) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	b := &Breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now, //drybellvet:wallclock — cooldown expiry is operational timing, not data-plane output
	}
	for _, o := range opts {
		o(b)
	}
	return b
}

// Allow reports whether a call may proceed. Closed always allows. Open
// allows nothing until the cooldown elapses, at which point the breaker
// moves to half-open and exactly one caller — the probe — gets true; every
// other caller keeps getting false until the probe reports back.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	switch b.state {
	case Closed:
		b.mu.Unlock()
		return true
	case Open:
		if b.now().Sub(b.openedAt) < b.cooldown {
			b.mu.Unlock()
			return false
		}
		b.state = HalfOpen
		b.probing = true
		b.mu.Unlock()
		b.notify(HalfOpen)
		return true
	default: // HalfOpen
		if b.probing {
			b.mu.Unlock()
			return false
		}
		b.probing = true
		b.mu.Unlock()
		return true
	}
}

// Success records a successful call: it resets the failure count and, from
// half-open, closes the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.failures = 0
	changed := b.state != Closed
	b.state = Closed
	b.probing = false
	b.mu.Unlock()
	if changed {
		b.notify(Closed)
	}
}

// Failure records a failed call. From closed it counts toward the
// threshold; reaching it trips the breaker. From half-open (a failed probe)
// it reopens immediately for another full cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	var changed bool
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = Open
			b.openedAt = b.now()
			changed = true
		}
	case HalfOpen:
		b.state = Open
		b.openedAt = b.now()
		b.probing = false
		changed = true
	default: // Open: a straggling failure from before the trip; nothing to do.
	}
	b.mu.Unlock()
	if changed {
		b.notify(Open)
	}
}

// State returns the breaker's current position. An open breaker whose
// cooldown has elapsed still reads Open until some caller's Allow promotes
// it to half-open.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (b *Breaker) notify(s State) {
	if b.onChange != nil {
		b.onChange(s)
	}
}
