package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// --- fixtures ---

// upperMapper is the canonical test job's Mapper, shared by the in-process
// reference runs and the worker-side job code: it counts its records and
// emits each one upper-cased.
var upperMapper = mapreduce.MapFunc(func(ctx *mapreduce.TaskContext, rec []byte, emit mapreduce.Emitter) error {
	ctx.Counters.Inc("records-in", 1)
	emit(bytes.ToUpper(rec))
	return nil
})

// testRegistry carries the upper code under the key remote jobs use.
func testRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	err := reg.Register("upper", JobCode{
		Build: func(ctx context.Context, fs dfs.FS, inputBase string) (mapreduce.Mapper, error) {
			return upperMapper, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func stageWords(t *testing.T, fs dfs.FS, base string, words []string, shards int) {
	t.Helper()
	recs := make([][]byte, len(words))
	for i, w := range words {
		recs[i] = []byte(w)
	}
	if err := mapreduce.WriteInput(fs, base, recs, shards); err != nil {
		t.Fatal(err)
	}
}

func testWords(n int) []string {
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i%13)
	}
	return words
}

// reference runs the job in-process on a fresh Mem FS and returns its
// values and counters: the target every remote run must match.
func reference(t *testing.T, words []string, shards int) *mapreduce.Result {
	t.Helper()
	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", words, shards)
	res, err := mapreduce.Run(mapreduce.Job{
		Name: "upper", FS: fs, InputBase: "in/w", Parallelism: 4, Mapper: upperMapper,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSameResult fails unless got's values are byte-identical to want's,
// shard by shard, and its counters equal want's.
func assertSameResult(t *testing.T, got, want *mapreduce.Result) {
	t.Helper()
	if len(got.MapOutputs) != len(want.MapOutputs) {
		t.Fatalf("MapOutputs for %d shards, want %d", len(got.MapOutputs), len(want.MapOutputs))
	}
	for s := range want.MapOutputs {
		if len(got.MapOutputs[s]) != len(want.MapOutputs[s]) {
			t.Fatalf("shard %d: %d values, want %d", s, len(got.MapOutputs[s]), len(want.MapOutputs[s]))
		}
		for r := range want.MapOutputs[s] {
			if !bytes.Equal(got.MapOutputs[s][r], want.MapOutputs[s][r]) {
				t.Fatalf("shard %d value %d = %q, want %q", s, r, got.MapOutputs[s][r], want.MapOutputs[s][r])
			}
		}
	}
	if g, w := got.Counters["records-in"], want.Counters["records-in"]; g != w {
		t.Errorf("records-in = %d, want %d", g, w)
	}
}

// cluster is one coordinator plus n worker "processes" (goroutines talking
// real HTTP through an httptest server — same wire protocol, same
// serialization, same shared-nothing data plane as separate processes).
type cluster struct {
	pool *Pool
	srv  *httptest.Server
	stop context.CancelFunc
	wg   sync.WaitGroup
}

// startCluster brings up a pool and one RunWorker loop per entry in hooks
// (use a zero WorkerHooks for a healthy worker).
func startCluster(t *testing.T, opts PoolOptions, reg *Registry, hooks []WorkerHooks) *cluster {
	t.Helper()
	pool, err := NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(pool.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{pool: pool, srv: srv, stop: cancel}
	for i, h := range hooks {
		c.wg.Add(1)
		go func(i int, h WorkerHooks) {
			defer c.wg.Done()
			err := RunWorker(ctx, WorkerOptions{
				Coordinator: srv.URL,
				Name:        fmt.Sprintf("test-worker-%d", i),
				Jobs:        reg,
				PollWait:    200 * time.Millisecond,
				Hooks:       h,
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i, h)
	}
	t.Cleanup(func() {
		cancel()
		c.wg.Wait()
		pool.Close()
		srv.Close()
	})
	if err := pool.AwaitWorkers(ctx, len(hooks)); err != nil {
		t.Fatal(err)
	}
	return c
}

// remoteJob builds the upper job wired to the cluster's slot proxies. Resume
// is on, so every attempt also writes a checkpoint through the DFS gateway
// that the coordinator promotes by rename — the commit path remote faults
// must not corrupt.
func remoteJob(fs dfs.FS, pool *Pool) mapreduce.Job {
	return mapreduce.Job{
		Name: "upper", FS: fs, InputBase: "in/w",
		// The coordinator still needs a Mapper for validation; the remote
		// backend never calls it — workers resolve Code instead.
		Mapper:  upperMapper,
		Workers: pool.Workers(),
		Code:    "upper",
		Resume:  true,
	}
}

// postStatus drives one control endpoint directly, for protocol-level tests.
func postStatus(t *testing.T, url string, body, out any) int {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// fakeClock makes lease expiry a function of the test, not the scheduler.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// --- end-to-end: remote backend matches the in-process backend ---

// TestRemoteMatchesInProcess is the backbone equivalence check: the same
// job on the same input through two real worker processes over HTTP returns
// byte-identical values — and identical counters — to the in-process pool.
func TestRemoteMatchesInProcess(t *testing.T) {
	words := testWords(120)
	want := reference(t, words, 6)

	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", words, 6)
	c := startCluster(t, PoolOptions{FS: fs, Slots: 4}, testRegistry(t), []WorkerHooks{{}, {}})

	res, err := mapreduce.Run(remoteJob(fs, c.pool))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, res, want)
}

// TestRemoteExactlyOnceUnderFaults crosses the process boundary with the
// full fault battery: DFS faults on the coordinator's filesystem (which
// every worker I/O traverses via the gateway), workers killed dead on
// their first leases, and transient heartbeat partitions. The retry budget
// and lease expiry must absorb all of it and still return byte-identical
// values.
func TestRemoteExactlyOnceUnderFaults(t *testing.T) {
	words := testWords(120)
	want := reference(t, words, 6)

	inner := dfs.NewMem()
	fs := dfs.NewFaultFS(inner, 42)
	stageWords(t, fs, "in/w", words, 6)
	fs.FailProbPath(dfs.OpRead, "in/w-", 0.05)
	fs.FailProbPath(dfs.OpWrite, "_attempts/", 0.05)
	fs.FailProbPath(dfs.OpRename, "_attempts/", 0.05)

	// First two leases anywhere kill their worker dead; next two get
	// their heartbeats dropped until the lease expires. Two extra healthy
	// workers guarantee capacity survives the carnage.
	var kills, partitions atomic.Int32
	kills.Store(2)
	partitions.Store(2)
	faulty := WorkerHooks{
		Kill: func(mapreduce.TaskSpec) bool {
			return kills.Add(-1) >= 0
		},
		DropHeartbeats: func(mapreduce.TaskSpec) bool {
			return partitions.Add(-1) >= 0
		},
	}
	hooks := []WorkerHooks{faulty, faulty, {}, {}}

	c := startCluster(t, PoolOptions{
		FS: fs, Slots: 4,
		LeaseTTL: 300 * time.Millisecond, SweepEvery: 50 * time.Millisecond,
	}, testRegistry(t), hooks)

	job := remoteJob(fs, c.pool)
	job.MaxAttempts = 25
	res, err := mapreduce.Run(job)
	if err != nil {
		t.Fatalf("remote job under faults failed: %v (injected %d)", err, fs.Injected())
	}
	if fs.Injected() == 0 {
		t.Fatal("fault injection never fired; test is vacuous")
	}
	if res.Attempts <= res.MapTasks {
		t.Errorf("attempts = %d with kills and partitions; want retries", res.Attempts)
	}
	assertSameResult(t, res, want)
}

// TestRemoteFaultFSGatewayTraversal proves gateway error fidelity under
// faults: an injected coordinator-side failure surfaces to the worker as a
// PathError through two serializations, and ErrNotExist specifically
// survives the round trip (the runtime's resume probes depend on it).
func TestRemoteFaultFSGatewayTraversal(t *testing.T) {
	inner := dfs.NewMem()
	fs := dfs.NewFaultFS(inner, 7)
	pool, err := NewPool(PoolOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := NewFSClient(srv.URL, nil)

	// Not-exist fidelity.
	if _, err := client.ReadFile("nope"); !dfs.IsNotExist(err) {
		t.Errorf("ReadFile(missing) = %v, want IsNotExist", err)
	}
	if _, err := client.Stat("nope"); !dfs.IsNotExist(err) {
		t.Errorf("Stat(missing) = %v, want IsNotExist", err)
	}

	// Scripted fault fidelity: the injected error arrives as a non-nil,
	// non-ErrNotExist PathError.
	fs.FailNext(dfs.OpRead, "boom", 1)
	if err := client.WriteFile("boom", []byte("x")); err != nil {
		t.Fatal(err)
	}
	err = nil
	if _, err = client.ReadFile("boom"); err == nil {
		t.Fatal("injected read fault did not surface through the gateway")
	}
	if dfs.IsNotExist(err) {
		t.Errorf("injected fault mapped to ErrNotExist: %v", err)
	}
	var pe *dfs.PathError
	if !asPathError(err, &pe) || pe.Path != "boom" {
		t.Errorf("fault error = %#v, want PathError for %q", err, "boom")
	}
}

func asPathError(err error, target **dfs.PathError) bool {
	pe, ok := err.(*dfs.PathError)
	if ok {
		*target = pe
	}
	return ok
}

// TestRemoteGatewayRoundTrip exercises every dfs.FS operation through the
// gateway and checks it against the backing store directly.
func TestRemoteGatewayRoundTrip(t *testing.T) {
	fs := dfs.NewMem()
	pool, err := NewPool(PoolOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := NewFSClient(srv.URL, nil)

	payload := []byte("hello over the wire\x00with binary\xff")
	if err := client.WriteFile("dir/a", payload); err != nil {
		t.Fatal(err)
	}
	got, err := client.ReadFile("dir/a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip = %q, want %q", got, payload)
	}
	direct, err := fs.ReadFile("dir/a")
	if err != nil || !bytes.Equal(direct, payload) {
		t.Fatalf("backing store sees %q (%v), want %q", direct, err, payload)
	}
	if size, err := client.Stat("dir/a"); err != nil || size != int64(len(payload)) {
		t.Fatalf("Stat = %d, %v; want %d", size, err, len(payload))
	}
	if err := client.WriteFile("dir/b", []byte("b")); err != nil {
		t.Fatal(err)
	}
	paths, err := client.List("dir/")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || paths[0] != "dir/a" || paths[1] != "dir/b" {
		t.Fatalf("List = %v, want [dir/a dir/b]", paths)
	}
	if err := client.Rename("dir/a", "dir/c"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ReadFile("dir/a"); !dfs.IsNotExist(err) {
		t.Errorf("old path after rename: %v, want IsNotExist", err)
	}
	if err := client.Remove("dir/c"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("dir/c"); !dfs.IsNotExist(err) {
		t.Errorf("backing store still has removed file: %v", err)
	}
}

// --- lease edge cases (protocol level, deterministic clock) ---

// leaseHarness is a pool with a fake clock, a registered worker, and one
// slot dispatch in flight — the setup every lease edge case starts from.
type leaseHarness struct {
	pool    *Pool
	srv     *httptest.Server
	clock   *fakeClock
	worker  string
	outcome chan error // the slot's RunTask error
}

func newLeaseHarness(t *testing.T) *leaseHarness {
	t.Helper()
	pool, err := NewPool(PoolOptions{
		FS: dfs.NewMem(), Slots: 1,
		LeaseTTL: time.Second,
		// The sweeper must not race the fake clock; edge cases drive
		// expiry through takeLease, which checks deadlines on its own —
		// or call pool.sweep() by hand when the race itself is the test.
		SweepEvery:   time.Hour,
		MaxLeaseWait: 50 * time.Millisecond,
		Metrics:      obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	pool.now = clock.Now
	srv := httptest.NewServer(pool.Handler())
	t.Cleanup(func() { pool.Close(); srv.Close() })

	var reg registerResponse
	if st := postStatus(t, srv.URL+apiPrefix+"/register", registerRequest{Name: "edge"}, &reg); st != http.StatusOK {
		t.Fatalf("register = %d", st)
	}

	h := &leaseHarness{pool: pool, srv: srv, clock: clock, worker: reg.WorkerID, outcome: make(chan error, 1)}
	slot := pool.Workers()[0]
	go func() {
		_, err := slot.RunTask(context.Background(), mapreduce.TaskSpec{
			Job: "edge", Index: 0, Attempt: 1,
		})
		h.outcome <- err
	}()
	return h
}

// lease long-polls until the harness's dispatch is granted.
func (h *leaseHarness) lease(t *testing.T) leaseResponse {
	t.Helper()
	for i := 0; i < 100; i++ {
		var lr leaseResponse
		st := postStatus(t, h.srv.URL+apiPrefix+"/lease", leaseRequest{WorkerID: h.worker, Wait: 50 * time.Millisecond}, &lr)
		if st == http.StatusOK {
			return lr
		}
		if st != http.StatusNoContent {
			t.Fatalf("lease = %d", st)
		}
	}
	t.Fatal("dispatch never became leasable")
	return leaseResponse{}
}

func (h *leaseHarness) heartbeat(t *testing.T, workerID, leaseID string) int {
	t.Helper()
	return postStatus(t, h.srv.URL+apiPrefix+"/heartbeat", heartbeatRequest{WorkerID: workerID, LeaseID: leaseID}, nil)
}

func (h *leaseHarness) complete(t *testing.T, workerID, leaseID string, res *mapreduce.TaskResult) int {
	t.Helper()
	return postStatus(t, h.srv.URL+apiPrefix+"/complete", completeRequest{WorkerID: workerID, LeaseID: leaseID, Result: res}, nil)
}

// TestLeaseHeartbeatAfterExpiryRejected: a heartbeat arriving after the
// lease deadline — even before any sweep — gets 410 Gone, and the dispatch
// fails so the coordinator can retry the task. Renewal must not resurrect
// an expired lease, or a partitioned worker could hold a task forever.
func TestLeaseHeartbeatAfterExpiryRejected(t *testing.T) {
	h := newLeaseHarness(t)
	lr := h.lease(t)

	// In time: renewed.
	h.clock.Advance(500 * time.Millisecond)
	if st := h.heartbeat(t, h.worker, lr.LeaseID); st != http.StatusNoContent {
		t.Fatalf("timely heartbeat = %d, want 204", st)
	}
	// Renewal moved the deadline: 800ms later it is still alive...
	h.clock.Advance(800 * time.Millisecond)
	if st := h.heartbeat(t, h.worker, lr.LeaseID); st != http.StatusNoContent {
		t.Fatalf("heartbeat after renewal = %d, want 204", st)
	}
	// ...but silence past the TTL kills it.
	h.clock.Advance(1100 * time.Millisecond)
	if st := h.heartbeat(t, h.worker, lr.LeaseID); st != http.StatusGone {
		t.Fatalf("late heartbeat = %d, want 410", st)
	}
	err := <-h.outcome
	if err == nil || !strings.Contains(err.Error(), "expired") {
		t.Fatalf("dispatch outcome = %v, want lease-expired error", err)
	}
	// The lease is gone for good: even an in-time-looking beat now 410s.
	if st := h.heartbeat(t, h.worker, lr.LeaseID); st != http.StatusGone {
		t.Fatalf("heartbeat on dead lease = %d, want 410", st)
	}
}

// TestLeaseZombieCompleteLosesToPromotedAttempt: a worker whose lease
// expired mid-task finishes anyway and reports success — after the
// coordinator already failed the dispatch and re-ran the task. The zombie
// completion gets 410 and its result is discarded; the re-run attempt's
// completion is the one the slot returns.
func TestLeaseZombieCompleteLosesToPromotedAttempt(t *testing.T) {
	h := newLeaseHarness(t)
	zombie := h.lease(t)

	// Lease expires while the worker grinds on.
	h.clock.Advance(2 * time.Second)
	if st := h.heartbeat(t, h.worker, zombie.LeaseID); st != http.StatusGone {
		t.Fatalf("post-expiry heartbeat = %d, want 410", st)
	}
	if err := <-h.outcome; err == nil {
		t.Fatal("expired dispatch did not error")
	}

	// The coordinator retries: a fresh dispatch for attempt 2.
	retry := make(chan *mapreduce.TaskResult, 1)
	slot := h.pool.Workers()[0]
	go func() {
		res, err := slot.RunTask(context.Background(), mapreduce.TaskSpec{
			Job: "edge", Index: 0, Attempt: 2,
		})
		if err != nil {
			t.Errorf("retry dispatch: %v", err)
		}
		retry <- res
	}()
	fresh := h.lease(t)
	if fresh.Spec.Attempt != 2 {
		t.Fatalf("retried spec attempt = %d, want 2", fresh.Spec.Attempt)
	}

	// The zombie finally reports its attempt-1 "success": rejected, its
	// output never promoted.
	zr := &mapreduce.TaskResult{TaskID: zombie.Spec.TaskID(), Attempt: 1}
	if st := h.complete(t, h.worker, zombie.LeaseID, zr); st != http.StatusGone {
		t.Fatalf("zombie complete = %d, want 410", st)
	}

	// The live attempt commits and wins.
	fr := &mapreduce.TaskResult{TaskID: fresh.Spec.TaskID(), Attempt: 2}
	if st := h.complete(t, h.worker, fresh.LeaseID, fr); st != http.StatusNoContent {
		t.Fatalf("live complete = %d, want 204", st)
	}
	got := <-retry
	if got == nil || got.Attempt != 2 {
		t.Fatalf("promoted result = %+v, want attempt 2", got)
	}
}

// TestLeaseWorkerReRegistrationFreshIdentity: identity is minted per
// registration, never reused — a restarted worker cannot inherit its
// predecessor's leases, and a deregistered ID is dead on arrival.
func TestLeaseWorkerReRegistrationFreshIdentity(t *testing.T) {
	pool, err := NewPool(PoolOptions{FS: dfs.NewMem(), MaxLeaseWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	var first registerResponse
	postStatus(t, srv.URL+apiPrefix+"/register", registerRequest{Name: "phoenix"}, &first)
	if pool.NumWorkers() != 1 {
		t.Fatalf("NumWorkers = %d, want 1", pool.NumWorkers())
	}
	if st := postStatus(t, srv.URL+apiPrefix+"/deregister", deregisterRequest{WorkerID: first.WorkerID}, nil); st != http.StatusNoContent {
		t.Fatalf("deregister = %d", st)
	}

	var second registerResponse
	postStatus(t, srv.URL+apiPrefix+"/register", registerRequest{Name: "phoenix"}, &second)
	if second.WorkerID == first.WorkerID {
		t.Fatalf("re-registration reused identity %q", first.WorkerID)
	}

	// The old identity is stale everywhere: leasing with it gets 410.
	if st := postStatus(t, srv.URL+apiPrefix+"/lease", leaseRequest{WorkerID: first.WorkerID, Wait: time.Millisecond}, nil); st != http.StatusGone {
		t.Fatalf("lease with stale identity = %d, want 410", st)
	}
	// The fresh identity polls fine (empty).
	if st := postStatus(t, srv.URL+apiPrefix+"/lease", leaseRequest{WorkerID: second.WorkerID, Wait: time.Millisecond}, nil); st != http.StatusNoContent {
		t.Fatalf("lease with fresh identity = %d, want 204", st)
	}
}

// TestLeasePartitionedWorkerTaskRequeued: a worker that executes but never
// heartbeats loses every lease; the retries land on a healthy worker and
// the job still returns the reference values. The coordinator never needs
// to distinguish "dead" from "partitioned" — and cannot.
func TestLeasePartitionedWorkerTaskRequeued(t *testing.T) {
	words := testWords(60)
	want := reference(t, words, 3)

	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", words, 3)

	partitioned := WorkerHooks{
		DropHeartbeats: func(mapreduce.TaskSpec) bool { return true },
		// Stall past the TTL so the partition is always discovered.
		Stall: func(mapreduce.TaskSpec) { time.Sleep(700 * time.Millisecond) },
	}
	c := startCluster(t, PoolOptions{
		FS: fs, Slots: 2,
		LeaseTTL: 300 * time.Millisecond, SweepEvery: 50 * time.Millisecond,
	}, testRegistry(t), []WorkerHooks{partitioned, {}})

	job := remoteJob(fs, c.pool)
	job.MaxAttempts = 10
	res, err := mapreduce.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts <= res.MapTasks {
		t.Error("partitioned worker cost no extra attempts; partition never bit")
	}
	assertSameResult(t, res, want)
}

// TestLeaseStalledWorkerKeepsLease: a worker that stalls for several lease
// TTLs but keeps heartbeating is slow, not lost. Its lease holds, the task
// is never re-executed, and the job returns the reference values with
// exactly one attempt per task.
func TestLeaseStalledWorkerKeepsLease(t *testing.T) {
	words := testWords(60)
	want := reference(t, words, 3)

	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", words, 3)

	const ttl = 300 * time.Millisecond
	var stalls atomic.Int32
	slow := WorkerHooks{Stall: func(mapreduce.TaskSpec) {
		if stalls.Add(1) == 1 {
			time.Sleep(3 * ttl)
		}
	}}
	c := startCluster(t, PoolOptions{
		FS: fs, Slots: 2,
		LeaseTTL: ttl, SweepEvery: 50 * time.Millisecond,
	}, testRegistry(t), []WorkerHooks{slow})

	res, err := mapreduce.Run(remoteJob(fs, c.pool))
	if err != nil {
		t.Fatal(err)
	}
	if stalls.Load() == 0 {
		t.Fatal("the worker never stalled; test is vacuous")
	}
	if res.Attempts != res.MapTasks {
		t.Errorf("attempts = %d, want %d: a heartbeating worker lost its lease", res.Attempts, res.MapTasks)
	}
	assertSameResult(t, res, want)
}

// TestRemoteResume: checkpoint/resume spans process boundaries — a first
// remote run writes task checkpoints through the gateway; a second run of
// the same job skips every task and returns the same values from them.
func TestRemoteResume(t *testing.T) {
	words := testWords(60)
	want := reference(t, words, 3)

	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", words, 3)
	c := startCluster(t, PoolOptions{FS: fs, Slots: 2}, testRegistry(t), []WorkerHooks{{}, {}})

	job := remoteJob(fs, c.pool)
	first, err := mapreduce.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if first.SkippedTasks != 0 {
		t.Fatalf("fresh run skipped %d tasks", first.SkippedTasks)
	}

	job.Workers = c.pool.Workers()
	second, err := mapreduce.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if second.SkippedTasks != first.MapTasks {
		t.Errorf("resumed run skipped %d tasks, want %d", second.SkippedTasks, first.MapTasks)
	}
	if second.Attempts != 0 {
		t.Errorf("resumed run launched %d attempts, want 0", second.Attempts)
	}
	assertSameResult(t, first, want)
	assertSameResult(t, second, want)
}

// TestRemoteWorkerGracefulDrain: canceling a worker's context mid-job lets
// it finish its leased task and deregister; the job completes on the
// remaining worker with correct values and the pool sees the departure.
func TestRemoteWorkerGracefulDrain(t *testing.T) {
	words := testWords(120)
	want := reference(t, words, 6)

	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", words, 6)

	pool, err := NewPool(PoolOptions{FS: fs, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(pool.Handler())
	t.Cleanup(func() { pool.Close(); srv.Close() })
	reg := testRegistry(t)

	keeperCtx, stopKeeper := context.WithCancel(context.Background())
	defer stopKeeper()
	drainCtx, drainNow := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, w := range []struct {
		ctx  context.Context
		name string
	}{{keeperCtx, "keeper"}, {drainCtx, "drainee"}} {
		wg.Add(1)
		go func(ctx context.Context, name string) {
			defer wg.Done()
			if err := RunWorker(ctx, WorkerOptions{
				Coordinator: srv.URL, Name: name, Jobs: reg,
				PollWait: 100 * time.Millisecond,
			}); err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		}(w.ctx, w.name)
	}
	if err := pool.AwaitWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}

	// Drain one worker as soon as the job is underway.
	go func() {
		time.Sleep(50 * time.Millisecond)
		drainNow()
	}()
	res, err := mapreduce.Run(remoteJob(fs, pool))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, res, want)

	// The drained worker must have deregistered (poll: drain is async).
	deadline := time.Now().Add(5 * time.Second) //drybellvet:wallclock — test-only poll deadline
	for pool.NumWorkers() != 1 {
		if time.Now().After(deadline) { //drybellvet:wallclock — test-only poll deadline
			t.Fatalf("NumWorkers = %d after drain, want 1", pool.NumWorkers())
		}
		time.Sleep(10 * time.Millisecond)
	}
	stopKeeper()
	wg.Wait()
}

// TestRemoteDeploymentSkewFailsJob: a spec whose Code key no worker
// carries must fail the job with a descriptive error, not hang.
func TestRemoteDeploymentSkewFailsJob(t *testing.T) {
	words := testWords(30)
	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", words, 2)
	c := startCluster(t, PoolOptions{FS: fs, Slots: 2}, testRegistry(t), []WorkerHooks{{}})

	job := remoteJob(fs, c.pool)
	job.Code = "not-deployed"
	job.MaxAttempts = 2
	_, err := mapreduce.Run(job)
	if err == nil {
		t.Fatal("job with undeployed code key succeeded")
	}
	if !strings.Contains(err.Error(), "not-deployed") {
		t.Errorf("error %v does not name the missing code key", err)
	}
}
