package remote

import (
	"context"
	"testing"
	"time"
)

func TestBackoffScheduleGrowsAndCaps(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Multiplier: 2, Jitter: JitterNone}
	b := p.Start(1)
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		got := b.Next()
		if got != w*time.Millisecond {
			t.Fatalf("attempt %d: sleep = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

func TestBackoffJitterBoundedAndDeterministic(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: time.Second, Multiplier: 2, Jitter: 0.5}
	a, b := p.Start(42), p.Start(42)
	other := p.Start(7)
	var diverged bool
	for i := 0; i < 16; i++ {
		da, db, dc := a.Next(), b.Next(), other.Next()
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
		if da != dc {
			diverged = true
		}
		if da > time.Second {
			t.Fatalf("attempt %d: sleep %v exceeds Max", i, da)
		}
		if da < 1 {
			t.Fatalf("attempt %d: sleep %v below floor", i, da)
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

func TestBackoffJitterStaysWithinFraction(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: time.Minute, Multiplier: 1, Jitter: 0.25}
	b := p.Start(3)
	for i := 0; i < 64; i++ {
		d := b.Next()
		if d > 100*time.Millisecond || d < 75*time.Millisecond {
			t.Fatalf("attempt %d: sleep %v outside [75ms, 100ms]", i, d)
		}
	}
}

func TestBackoffResetRewinds(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: time.Second, Multiplier: 2, Jitter: JitterNone}
	b := p.Start(1)
	b.Next()
	b.Next()
	if b.attempt != 2 {
		t.Fatalf("attempt = %d, want 2", b.attempt)
	}
	b.Reset()
	if got := b.Next(); got != 10*time.Millisecond {
		t.Fatalf("after Reset: sleep = %v, want 10ms", got)
	}
}

func TestBackoffSleepHonorsContext(t *testing.T) {
	p := Policy{Base: time.Hour, Max: time.Hour, Multiplier: 2, Jitter: JitterNone}
	b := p.Start(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if b.Sleep(ctx) {
		t.Fatal("Sleep returned true under a canceled context")
	}
	if time.Since(start) > time.Second {
		t.Fatal("Sleep did not wake promptly on cancellation")
	}
}

func TestPolicyDefaults(t *testing.T) {
	b := Policy{}.Start(1)
	if b.policy.Base != DefaultPolicy.Base || b.policy.Max != DefaultPolicy.Max ||
		b.policy.Multiplier != DefaultPolicy.Multiplier || b.policy.Jitter != DefaultPolicy.Jitter {
		t.Fatalf("zero Policy did not inherit defaults: %+v", b.policy)
	}
}

func TestSeedStringDistinct(t *testing.T) {
	if SeedString("worker-1") == SeedString("worker-2") {
		t.Fatal("distinct identities hashed to the same seed")
	}
}
