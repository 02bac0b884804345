package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// WorkerHooks are fault-injection seams for the remote fault suite. They
// let a test make a worker process misbehave in the three ways the lease
// protocol must absorb — die, partition, stall — without reaching into the
// worker's internals. All are optional.
type WorkerHooks struct {
	// Kill, when it returns true for a leased spec, makes the worker
	// vanish mid-task: no heartbeat, no completion, no deregistration —
	// RunWorker just returns, like a process killed dead. The lease
	// expires and the coordinator re-executes the task elsewhere.
	Kill func(spec mapreduce.TaskSpec) bool
	// DropHeartbeats, when it returns true for the leased spec, suppresses
	// lease renewal while execution continues — a network partition. The
	// coordinator cannot tell this from a death (by design); the lease
	// expires, the task re-runs elsewhere, and this worker's eventual
	// completion is rejected with 410 Gone.
	DropHeartbeats func(spec mapreduce.TaskSpec) bool
	// Stall delays the leased spec's execution — a slow worker. Its
	// heartbeats keep the lease alive, so the task waits for it; combined
	// with DropHeartbeats the lease expires and the task re-runs elsewhere.
	Stall func(spec mapreduce.TaskSpec)
}

// WorkerOptions configures one worker process's RunWorker loop.
type WorkerOptions struct {
	// Coordinator is the base URL of the coordinator's Handler, e.g.
	// "http://127.0.0.1:9090". Required.
	Coordinator string
	// Name is an advisory label for diagnostics; identity is the WorkerID
	// the coordinator mints at registration. It also seeds the worker's
	// retry jitter, so a fleet of named workers restarting together
	// decorrelates instead of stampeding.
	Name string
	// Jobs resolves TaskSpec.Code keys to this worker's job
	// implementations. Required.
	Jobs *Registry
	// Client is the HTTP client for all coordinator traffic. Nil uses
	// http.DefaultClient.
	Client *http.Client
	// PollWait is how long each lease request long-polls. Defaults to 2s.
	PollWait time.Duration
	// Retry is the shared backoff-with-jitter schedule for every retrying
	// coordinator interaction: registration, lease polls after transport
	// errors, completion reports, and the DFS gateway client's idempotent
	// operations. Zero fields inherit DefaultPolicy.
	Retry Policy
	// DrainTimeout bounds the graceful drain: once ctx is canceled, a task
	// still executing after this long is abandoned (its lease expires and
	// the coordinator re-runs it elsewhere) so SIGTERM cannot hang forever
	// on a stuck task. 0 means drain without bound.
	DrainTimeout time.Duration
	// Metrics, when non-nil, records the DFS gateway client's transport
	// retries as a registry series.
	Metrics *obs.Registry
	// Hooks inject faults for tests.
	Hooks WorkerHooks
}

// heartbeatsPerTTL is how many times per granted TTL a worker renews its
// lease, so one lost beat does not cost the lease.
const heartbeatsPerTTL = 3

// errKilled distinguishes a hook-simulated death inside the lease loop.
var errKilled = fmt.Errorf("remote: worker killed by fault hook")

// workerClient is the running state of one RunWorker call.
type workerClient struct {
	opts  WorkerOptions
	fs    *FSClient
	hc    *http.Client
	id    string
	built map[string]mapreduce.Mapper // code key → cached build; single-goroutine

	// seeds decorrelates the jitter streams of this worker's retry loops.
	seeds *retrySeeds
}

// RunWorker registers with the coordinator and serves tasks until ctx
// ends. It is the body of `drybelld -mode worker`.
//
// The loop: long-poll for a lease, resolve the spec's Code key in Jobs
// (building and caching the job's Mapper, which may read the
// corpus through the coordinator's DFS gateway), execute the task with
// mapreduce.ExecuteTask against that same gateway while a background
// goroutine renews the lease, then report the result.
//
// Cancellation is a graceful drain: a worker holding a lease finishes the
// task — heartbeats keep the lease alive, so nothing is re-executed — then
// deregisters and returns nil. A worker that loses its lease mid-task (410
// on heartbeat: it was partitioned or too slow, and the coordinator moved
// on) abandons the task immediately; its attempt-scoped output is inert.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.Coordinator == "" {
		return fmt.Errorf("remote: WorkerOptions.Coordinator is required")
	}
	if opts.Jobs == nil {
		return fmt.Errorf("remote: WorkerOptions.Jobs is required")
	}
	if opts.PollWait <= 0 {
		opts.PollWait = 2 * time.Second
	}
	hc := opts.Client
	if hc == nil {
		hc = http.DefaultClient
	}
	seeds := newRetrySeeds(SeedString(opts.Coordinator + "/" + opts.Name))
	w := &workerClient{
		opts: opts,
		fs: NewFSClientOpts(opts.Coordinator, hc, FSClientOptions{
			Retry:   opts.Retry,
			Seed:    seeds.next(),
			Metrics: opts.Metrics,
		}),
		hc:    hc,
		built: make(map[string]mapreduce.Mapper),
		seeds: seeds,
	}
	if err := w.register(ctx); err != nil {
		return err
	}
	// One backoff walks the whole lease loop: transport errors stretch it,
	// any successful round resets it.
	bo := opts.Retry.Start(seeds.next())
	for {
		if ctx.Err() != nil {
			w.deregister()
			return nil
		}
		spec, leaseID, ttl, status, err := w.lease(ctx)
		switch {
		case ctx.Err() != nil:
			w.deregister()
			return nil
		case err != nil:
			// Coordinator unreachable; back off with jitter and retry. A
			// long outage just means this worker contributes nothing
			// until the coordinator returns.
			bo.Sleep(ctx)
			continue
		case status == http.StatusGone:
			// Stale identity (coordinator restarted, or we were
			// deregistered). Re-register for a fresh one.
			if err := w.register(ctx); err != nil {
				return err
			}
			continue
		case status == http.StatusServiceUnavailable:
			// Pool closed: the coordinator is done with remote work.
			return nil
		case status == http.StatusNoContent:
			bo.Reset()
			continue // empty poll; the server already waited
		case status != http.StatusOK:
			bo.Sleep(ctx)
			continue
		}
		bo.Reset()
		if err := w.serve(ctx, spec, leaseID, ttl); err != nil {
			if err == errKilled {
				return nil // simulated death: no drain, no deregister
			}
			return err
		}
	}
}

// serve executes one leased task and reports its outcome.
func (w *workerClient) serve(ctx context.Context, spec mapreduce.TaskSpec, leaseID string, ttl time.Duration) error {
	if w.opts.Hooks.Kill != nil && w.opts.Hooks.Kill(spec) {
		return errKilled
	}

	// The task must survive a drain signal: canceling ctx stops the
	// leasing loop, not work already leased. Losing the lease (410 on
	// heartbeat) or blowing the drain budget is what aborts execution.
	taskCtx, abandon := context.WithCancel(context.WithoutCancel(ctx)) //drybellvet:detached — drain finishes the leased task; only lease loss aborts it
	defer abandon()

	// Bound the drain: a task still executing DrainTimeout after the drain
	// signal is abandoned — its lease expires and the coordinator re-runs
	// it elsewhere — so a stuck task cannot hold SIGTERM hostage.
	if w.opts.DrainTimeout > 0 {
		go func() {
			select {
			case <-taskCtx.Done():
				return
			case <-ctx.Done():
			}
			t := time.NewTimer(w.opts.DrainTimeout)
			defer t.Stop()
			select {
			case <-taskCtx.Done():
			case <-t.C:
				abandon()
			}
		}()
	}

	hbDone := make(chan struct{})
	go w.heartbeatLoop(taskCtx, spec, leaseID, ttl/heartbeatsPerTTL, abandon, hbDone)

	if w.opts.Hooks.Stall != nil {
		w.opts.Hooks.Stall(spec)
	}

	result, taskErr := w.execute(taskCtx, spec)
	lost := taskCtx.Err() != nil // heartbeat got 410 and abandoned the task
	abandon()
	<-hbDone
	if lost {
		// Lease lost mid-task; nothing to report — the coordinator
		// already charged the attempt, and a completion would only
		// bounce off 410 anyway.
		return nil
	}
	w.complete(leaseID, result, taskErr)
	return nil
}

// heartbeatLoop renews the lease until the task context ends. A 410 means
// the lease is gone — this worker is a zombie for the task — so it aborts
// execution via abandon. Transport errors are tolerated: the next beat may
// get through, and if none do the lease expires, which is the same
// outcome a real partition produces.
func (w *workerClient) heartbeatLoop(ctx context.Context, spec mapreduce.TaskSpec, leaseID string, every time.Duration, abandon context.CancelFunc, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if w.opts.Hooks.DropHeartbeats != nil && w.opts.Hooks.DropHeartbeats(spec) {
				continue
			}
			status, err := w.post("/heartbeat", heartbeatRequest{WorkerID: w.id, LeaseID: leaseID}, nil)
			if err == nil && status == http.StatusGone {
				abandon()
				return
			}
		}
	}
}

// execute resolves the spec's code key and runs the task against the
// coordinator's DFS gateway.
func (w *workerClient) execute(ctx context.Context, spec mapreduce.TaskSpec) (*mapreduce.TaskResult, error) {
	mapper, ok := w.built[spec.Code]
	if !ok {
		jc, found := w.opts.Jobs.Lookup(spec.Code)
		if !found {
			return nil, fmt.Errorf("remote: no job code %q on this worker (have %v) — deployment skew?", spec.Code, w.opts.Jobs.Keys())
		}
		var err error
		if mapper, err = jc.Build(ctx, w.fs, spec.InputBase); err != nil {
			return nil, fmt.Errorf("remote: building job code %q: %w", spec.Code, err)
		}
		w.built[spec.Code] = mapper
	}
	return mapreduce.ExecuteTask(ctx, w.fs, spec, spec.Job, mapper)
}

// register obtains a fresh worker identity, retrying on the shared backoff
// schedule while the coordinator is unreachable (it may still be binding
// its listener, or be mid-restart). Jittered backoff here is what keeps a
// coordinator restart from triggering a synchronized reconnect stampede
// across the fleet.
func (w *workerClient) register(ctx context.Context) error {
	bo := w.opts.Retry.Start(w.seeds.next())
	for {
		var resp registerResponse
		status, err := w.post("/register", registerRequest{Name: w.opts.Name}, &resp)
		if err == nil && status == http.StatusOK && resp.WorkerID != "" {
			w.id = resp.WorkerID
			return nil
		}
		if err == nil && status == http.StatusServiceUnavailable {
			return fmt.Errorf("remote: coordinator pool closed")
		}
		if ctx.Err() != nil {
			return fmt.Errorf("remote: registering with %s: %w", w.opts.Coordinator, ctx.Err())
		}
		bo.Sleep(ctx)
	}
}

// deregister is the drain's last act; best-effort, the lease sweeper
// covers us if it never arrives.
func (w *workerClient) deregister() {
	_, _ = w.post("/deregister", deregisterRequest{WorkerID: w.id}, nil)
}

// lease long-polls the coordinator for one dispatch.
func (w *workerClient) lease(ctx context.Context) (spec mapreduce.TaskSpec, leaseID string, ttl time.Duration, status int, err error) {
	payload, err := json.Marshal(leaseRequest{WorkerID: w.id, Wait: w.opts.PollWait})
	if err != nil {
		return spec, "", 0, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Coordinator+apiPrefix+"/lease", bytes.NewReader(payload))
	if err != nil {
		return spec, "", 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return spec, "", 0, 0, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return spec, "", 0, resp.StatusCode, nil
	}
	var lr leaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		return spec, "", 0, 0, err
	}
	return lr.Spec, lr.LeaseID, lr.TTL, http.StatusOK, nil
}

// complete reports the attempt's outcome. A 410 means the lease expired
// first and the result is discarded — the attempt was already charged as
// failed and possibly re-run; this worker's output stays attempt-scoped
// and unpromoted. Transport errors retry on the shared backoff (reporting
// is idempotent: a duplicate of a landed completion bounces off 410)
// because an unreported completion wastes a whole executed attempt; if no
// retry lands, the lease sweeper turns the silence into a retried attempt,
// same as a death.
func (w *workerClient) complete(leaseID string, result *mapreduce.TaskResult, taskErr error) {
	req := completeRequest{WorkerID: w.id, LeaseID: leaseID, Result: result}
	if taskErr != nil {
		req.Result = nil
		req.Error = taskErr.Error()
	}
	bo := w.opts.Retry.Start(w.seeds.next())
	for attempt := 0; attempt < 4; attempt++ {
		if _, err := w.post("/complete", req, nil); err == nil {
			return
		}
		bo.Sleep(context.Background()) //drybellvet:detached — the report must outlive a drain signal; the attempt budget bounds the loop
	}
}

// post sends one JSON request to a control endpoint and decodes the
// response into out when it is non-nil and the status is 200.
func (w *workerClient) post(endpoint string, body, out any) (int, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, w.opts.Coordinator+apiPrefix+endpoint, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer drain(resp)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}
