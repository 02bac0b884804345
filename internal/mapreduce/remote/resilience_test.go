package remote

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
)

// TestLeaseSweeperHeartbeatRaceSingleExpiry: an expired lease can be
// noticed by two parties at once — the sweeper's periodic scan and the
// on-access check a late heartbeat triggers. Whichever wins, the expiry
// must be charged exactly once: one expiration counted, one dispatch
// failure (one retry-budget decrement), and the heartbeat answered 410 as
// a zombie. Double-charging would burn two attempts from the task's budget
// for a single worker silence.
func TestLeaseSweeperHeartbeatRaceSingleExpiry(t *testing.T) {
	// The interleaving is scheduler-chosen; repeat to visit both orders.
	for round := 0; round < 10; round++ {
		h := newLeaseHarness(t)
		lr := h.lease(t)
		h.clock.Advance(1100 * time.Millisecond) // past the 1s TTL

		var wg sync.WaitGroup
		var hbStatus atomic.Int32
		wg.Add(2)
		go func() {
			defer wg.Done()
			h.pool.sweep()
		}()
		go func() {
			defer wg.Done()
			hbStatus.Store(int32(h.heartbeat(t, h.worker, lr.LeaseID)))
		}()
		wg.Wait()

		if st := hbStatus.Load(); st != http.StatusGone {
			t.Fatalf("round %d: racing heartbeat = %d, want 410", round, st)
		}
		err := <-h.outcome
		if err == nil || !strings.Contains(err.Error(), "expired") {
			t.Fatalf("round %d: dispatch outcome = %v, want lease-expired error", round, err)
		}
		select {
		case err := <-h.outcome:
			t.Fatalf("round %d: dispatch finished twice; second outcome %v", round, err)
		default:
		}
		if got := h.pool.metrics.expirations.Value(); got != 1 {
			t.Fatalf("round %d: expirations = %d, want exactly 1", round, got)
		}
		if got := h.pool.metrics.zombies.Value(); got != 1 {
			t.Fatalf("round %d: zombie rejections = %d, want exactly 1", round, got)
		}
	}
}

// TestRemoteByteIdenticalUnderNetworkFaults is the tentpole wire-fault
// check: every HTTP call a worker makes — register, lease, heartbeat,
// complete, and all DFS gateway I/O — runs through a fault-injecting
// transport that drops and delays requests on a seeded schedule. The
// shared backoff policy, lease expiry, and the 410 for an expired lease
// must absorb all of it and still return values — and checkpoints
// committed through the gateway — byte-identical to a fault-free
// in-process run.
func TestRemoteByteIdenticalUnderNetworkFaults(t *testing.T) {
	words := testWords(120)
	want := reference(t, words, 6)

	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", words, 6)

	pool, err := NewPool(PoolOptions{FS: fs, Slots: 4, LeaseTTL: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(pool.Handler())
	ctx, cancel := context.WithCancel(context.Background())

	faults := chaos.NewTransport(7, srv.Client().Transport)
	faults.DropRate = 0.05
	faults.DelayRate = 0.10
	faults.Delay = 2 * time.Millisecond

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := RunWorker(ctx, WorkerOptions{
				Coordinator: srv.URL,
				Name:        fmt.Sprintf("chaos-worker-%d", i),
				Jobs:        testRegistry(t),
				Client:      &http.Client{Transport: faults},
				PollWait:    100 * time.Millisecond,
				Retry:       Policy{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond},
			})
			// A worker canceled mid-register reports the cancellation;
			// anything else is a real failure.
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		pool.Close()
		srv.Close()
	})
	if err := pool.AwaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}

	job := remoteJob(fs, pool)
	job.MaxAttempts = 8 // headroom: dropped writes/completes cost attempts
	res, err := mapreduce.RunContext(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, res, want)
	// The promoted checkpoints hold the same values: a resumed run
	// returns them without executing anything.
	resumed, err := mapreduce.RunContext(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Attempts != 0 {
		t.Errorf("resumed run launched %d attempts, want 0", resumed.Attempts)
	}
	assertSameResult(t, resumed, want)
	if faults.Dropped.Load() == 0 {
		t.Error("fault injector never dropped a request; the run proves nothing")
	}
}
