package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// PoolOptions configures a coordinator-side Pool.
type PoolOptions struct {
	// FS is the filesystem the pool's jobs run against. The pool serves it
	// to workers through the DFS gateway; it must be the same FS the
	// coordinator hands to mapreduce.Job. Required.
	FS dfs.FS
	// Slots is how many tasks the pool dispatches concurrently —
	// Workers() returns this many slot proxies. It is deliberately
	// decoupled from the number of registered worker processes: slots are
	// the coordinator's concurrency budget, workers are capacity that
	// drains it. Defaults to 8.
	Slots int
	// LeaseTTL is how long a dispatched task's lease lives without a
	// heartbeat before the coordinator declares the worker dead and fails
	// the dispatch (feeding the task back into the retry budget).
	// Defaults to 5s.
	LeaseTTL time.Duration
	// SweepEvery is how often the pool scans for expired leases.
	// Defaults to LeaseTTL/4.
	SweepEvery time.Duration
	// MaxLeaseWait caps how long a worker's lease request may long-poll
	// before an empty response. Defaults to 10s.
	MaxLeaseWait time.Duration
	// Metrics optionally records pool activity (registrations, leases,
	// heartbeats, expirations, zombie rejections) and, when set, wraps the
	// gateway-served FS in obs.InstrumentFS so workers' remote I/O shows
	// up in the same families as local I/O.
	Metrics *obs.Registry
}

// dispatch states. A dispatch is one slot's outstanding RunTask call; it
// moves pending → leased when a worker takes it and reaches done exactly
// once — by completion, lease expiry, or slot cancellation — whichever
// comes first. First writer wins; everyone later is a zombie.
const (
	dispatchPending = iota
	dispatchLeased
	dispatchDone
)

// dispatch carries one task from a slot proxy to a worker and its outcome
// back.
type dispatch struct {
	spec mapreduce.TaskSpec

	mu       sync.Mutex
	state    int  // guarded by mu
	canceled bool // guarded by mu; set when the slot's context dies
	outcome  chan dispatchOutcome
}

type dispatchOutcome struct {
	result *mapreduce.TaskResult
	err    error
}

// finish delivers the outcome if the dispatch is still live. It returns
// false for a dispatch that already finished — the caller lost the race.
func (d *dispatch) finish(out dispatchOutcome) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == dispatchDone {
		return false
	}
	d.state = dispatchDone
	d.outcome <- out
	return true
}

// cancel marks the dispatch dead from the slot side (its RunTask context
// ended). No outcome will be read; leasing skips it, a holder's completion
// gets 410.
func (d *dispatch) cancel() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.canceled = true
	d.state = dispatchDone
}

// tryLease moves pending → leased. False means the dispatch was canceled
// or already taken and must not be handed out.
func (d *dispatch) tryLease() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.canceled || d.state != dispatchPending {
		return false
	}
	d.state = dispatchLeased
	return true
}

// lease covers one leased dispatch: the worker holding it must renew
// before expires or the sweeper fails the dispatch and the lease ID goes
// stale (410 for every later heartbeat or completion).
type lease struct {
	id       string
	workerID string
	d        *dispatch
	expires  time.Time
}

// poolMetrics is the pool's instrumented surface; nil when metrics are off.
type poolMetrics struct {
	registrations *obs.Counter
	leasesGranted *obs.Counter
	heartbeats    *obs.Counter
	expirations   *obs.Counter
	zombies       *obs.Counter
	workersGauge  *obs.Gauge
}

func newPoolMetrics(reg *obs.Registry) *poolMetrics {
	if reg == nil {
		return nil
	}
	return &poolMetrics{
		registrations: reg.Counter("drybell_remote_registrations_total", "Worker registrations accepted."),
		leasesGranted: reg.Counter("drybell_remote_leases_granted_total", "Task leases handed to workers."),
		heartbeats:    reg.Counter("drybell_remote_heartbeats_total", "Lease renewals accepted."),
		expirations:   reg.Counter("drybell_remote_lease_expirations_total", "Leases expired by the sweeper or rejected past deadline."),
		zombies:       reg.Counter("drybell_remote_zombie_rejections_total", "Heartbeats or completions rejected with 410 Gone."),
		workersGauge:  reg.Gauge("drybell_remote_workers", "Currently registered worker processes."),
	}
}

// Pool is the coordinator side of the remote backend. It serves the
// control plane (registration, leasing, heartbeats, completion) and the
// data plane (the DFS gateway) on one Handler, and exposes the execution
// seam as Workers(): slot proxies implementing mapreduce.Worker whose
// RunTask blocks until some registered worker process executes the task —
// or until its lease expires, which surfaces as an attempt failure the
// coordinator's retry machinery already knows how to absorb.
type Pool struct {
	opts    PoolOptions
	fs      dfs.FS
	mux     *http.ServeMux
	pending chan *dispatch
	metrics *poolMetrics

	// now is the pool's clock, swappable in tests so lease expiry is
	// deterministic rather than timing-dependent.
	now func() time.Time

	mu         sync.Mutex
	cond       *sync.Cond        // broadcast on worker-set change and close
	workers    map[string]string // guarded by mu: worker ID → advisory name
	leases     map[string]*lease // guarded by mu
	nextWorker int               // guarded by mu
	nextLease  int               // guarded by mu
	closed     bool              // guarded by mu

	sweepStop chan struct{}
	sweepDone chan struct{}
}

// NewPool builds a Pool and starts its lease sweeper. Call Close when done.
func NewPool(opts PoolOptions) (*Pool, error) {
	if opts.FS == nil {
		return nil, fmt.Errorf("remote: PoolOptions.FS is required")
	}
	if opts.Slots <= 0 {
		opts.Slots = 8
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 5 * time.Second
	}
	if opts.SweepEvery <= 0 {
		opts.SweepEvery = opts.LeaseTTL / 4
	}
	if opts.MaxLeaseWait <= 0 {
		opts.MaxLeaseWait = 10 * time.Second
	}
	fs := opts.FS
	if opts.Metrics != nil {
		fs = obs.InstrumentFS(fs, opts.Metrics)
	}
	p := &Pool{
		opts:    opts,
		fs:      fs,
		pending: make(chan *dispatch, opts.Slots),
		metrics: newPoolMetrics(opts.Metrics),
		now:     time.Now, //drybellvet:wallclock — lease TTLs are operational timeouts, not data-plane values
		workers: make(map[string]string),
		leases:  make(map[string]*lease),

		sweepStop: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	p.mux = http.NewServeMux()
	p.mux.HandleFunc("POST "+apiPrefix+"/register", p.handleRegister)
	p.mux.HandleFunc("POST "+apiPrefix+"/deregister", p.handleDeregister)
	p.mux.HandleFunc("POST "+apiPrefix+"/lease", p.handleLease)
	p.mux.HandleFunc("POST "+apiPrefix+"/heartbeat", p.handleHeartbeat)
	p.mux.HandleFunc("POST "+apiPrefix+"/complete", p.handleComplete)
	(&fsGateway{fs: p.fs}).mount(p.mux)
	go p.sweeper()
	return p, nil
}

// Handler returns the pool's HTTP surface: control plane and DFS gateway.
// Serve it wherever workers can reach the coordinator.
func (p *Pool) Handler() http.Handler { return p.mux }

// Workers returns the pool's slot proxies, ready for mapreduce.Job.Workers.
// Each call returns fresh proxies; all share the pool's dispatch queue.
func (p *Pool) Workers() []mapreduce.Worker {
	ws := make([]mapreduce.Worker, p.opts.Slots)
	for i := range ws {
		ws[i] = &slotWorker{p: p}
	}
	return ws
}

// NumWorkers reports how many worker processes are currently registered.
func (p *Pool) NumWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// AwaitWorkers blocks until at least n worker processes are registered,
// the context ends, or the pool closes.
func (p *Pool) AwaitWorkers(ctx context.Context, n int) error {
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.workers) < n {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("remote: waiting for %d workers (have %d): %w", n, len(p.workers), err)
		}
		if p.closed {
			return fmt.Errorf("remote: pool closed while waiting for %d workers (have %d)", n, len(p.workers))
		}
		p.cond.Wait()
	}
	return nil
}

// Close stops the sweeper and fails every outstanding lease. Safe to call
// once; the pool is unusable afterwards.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	expired := make([]*lease, 0, len(p.leases))
	for id, l := range p.leases { //drybellvet:ordered — draining; order immaterial
		expired = append(expired, l)
		delete(p.leases, id)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, l := range expired {
		l.d.finish(dispatchOutcome{err: fmt.Errorf("remote: pool closed with task %s leased", l.d.spec.TaskID())})
	}
	close(p.sweepStop)
	<-p.sweepDone
}

// sweeper periodically expires leases whose holders stopped heartbeating.
func (p *Pool) sweeper() {
	defer close(p.sweepDone)
	t := time.NewTicker(p.opts.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-p.sweepStop:
			return
		case <-t.C:
			p.sweep()
		}
	}
}

// sweep fails every expired lease: the dispatch errors (charged against the
// task's retry budget exactly like an in-process worker crash) and the
// lease ID goes stale, so the holder — dead, partitioned, or merely late —
// is a zombie from here on.
func (p *Pool) sweep() {
	now := p.now()
	p.mu.Lock()
	var dead []*lease
	for id, l := range p.leases { //drybellvet:ordered — expiry scan; order immaterial
		if now.After(l.expires) {
			dead = append(dead, l)
			delete(p.leases, id)
		}
	}
	p.mu.Unlock()
	for _, l := range dead {
		if p.metrics != nil {
			p.metrics.expirations.Inc()
		}
		l.d.finish(dispatchOutcome{err: fmt.Errorf(
			"remote: lease %s on task %s attempt %d expired (worker %s dead or partitioned)",
			l.id, l.d.spec.TaskID(), l.d.spec.Attempt, l.workerID)})
	}
}

// slotWorker is one dispatch slot: a mapreduce.Worker whose RunTask
// enqueues the spec for some remote worker process and blocks for the
// outcome. The coordinator drives it exactly like an in-process worker —
// one goroutine, one task at a time — so every upstream guarantee
// (retry budgets, one promoted attempt per task) holds unchanged.
type slotWorker struct {
	p *Pool
}

// RunTask implements mapreduce.Worker.
func (s *slotWorker) RunTask(ctx context.Context, spec mapreduce.TaskSpec) (*mapreduce.TaskResult, error) {
	d := &dispatch{spec: spec, outcome: make(chan dispatchOutcome, 1)}
	select {
	case s.p.pending <- d:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case out := <-d.outcome:
		return out.result, out.err
	case <-ctx.Done():
		// The slot's attempt is over (job canceled, or a rival attempt
		// already committed). Kill the dispatch so a worker still holding
		// it becomes a zombie: leasing skips it, completion gets 410, and
		// its attempt-scoped scratch is cleaned up with the job.
		d.cancel()
		s.p.dropLeaseFor(d)
		return nil, ctx.Err()
	}
}

// dropLeaseFor removes the lease covering d, if any, so a canceled
// dispatch cannot be completed by its holder.
func (p *Pool) dropLeaseFor(d *dispatch) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, l := range p.leases { //drybellvet:ordered — single-match scan
		if l.d == d {
			delete(p.leases, id)
			return
		}
	}
}

// --- control-plane handlers ---

func (p *Pool) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		http.Error(w, "remote: pool closed", http.StatusServiceUnavailable)
		return
	}
	p.nextWorker++
	id := fmt.Sprintf("w%04d", p.nextWorker)
	p.workers[id] = req.Name
	n := len(p.workers)
	p.cond.Broadcast()
	p.mu.Unlock()
	if p.metrics != nil {
		p.metrics.registrations.Inc()
		p.metrics.workersGauge.Set(float64(n))
	}
	writeJSON(w, registerResponse{WorkerID: id})
}

func (p *Pool) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req deregisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p.mu.Lock()
	delete(p.workers, req.WorkerID)
	n := len(p.workers)
	p.cond.Broadcast()
	p.mu.Unlock()
	if p.metrics != nil {
		p.metrics.workersGauge.Set(float64(n))
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleLease long-polls for a pending dispatch. An unregistered worker ID
// gets 410 Gone — its identity is stale (never registered, deregistered, or
// from before a coordinator restart) and the worker must re-register for a
// fresh one. An empty poll returns 204.
func (p *Pool) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p.mu.Lock()
	_, registered := p.workers[req.WorkerID]
	closed := p.closed
	p.mu.Unlock()
	if closed {
		http.Error(w, "remote: pool closed", http.StatusServiceUnavailable)
		return
	}
	if !registered {
		http.Error(w, "remote: unknown worker "+req.WorkerID, http.StatusGone)
		return
	}
	wait := req.Wait
	if wait <= 0 || wait > p.opts.MaxLeaseWait {
		wait = p.opts.MaxLeaseWait
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		select {
		case d := <-p.pending:
			if !d.tryLease() {
				continue // canceled while queued; skip, keep polling
			}
			resp, ok := p.grantLease(req.WorkerID, d)
			if !ok {
				// Pool closed between the poll and the grant; the
				// dispatch was failed by Close.
				http.Error(w, "remote: pool closed", http.StatusServiceUnavailable)
				return
			}
			writeJSON(w, resp)
			return
		case <-deadline.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			// Worker gave up (or died) mid-poll. The dispatch, if we had
			// taken one, was never leased — nothing to undo.
			return
		}
	}
}

// grantLease mints a lease over a freshly taken dispatch.
func (p *Pool) grantLease(workerID string, d *dispatch) (leaseResponse, bool) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		d.finish(dispatchOutcome{err: fmt.Errorf("remote: pool closed with task %s leased", d.spec.TaskID())})
		return leaseResponse{}, false
	}
	p.nextLease++
	l := &lease{
		id:       fmt.Sprintf("l%06d", p.nextLease),
		workerID: workerID,
		d:        d,
		expires:  p.now().Add(p.opts.LeaseTTL),
	}
	p.leases[l.id] = l
	p.mu.Unlock()
	if p.metrics != nil {
		p.metrics.leasesGranted.Inc()
	}
	return leaseResponse{LeaseID: l.id, TTL: p.opts.LeaseTTL, Spec: d.spec}, true
}

// takeLease looks up a live lease for (workerID, leaseID), expiring it on
// the spot if its deadline already passed. It returns the lease and true
// only when the caller may act on it.
func (p *Pool) takeLease(workerID, leaseID string, remove bool) (*lease, bool) {
	now := p.now()
	p.mu.Lock()
	l, ok := p.leases[leaseID]
	if !ok || l.workerID != workerID {
		p.mu.Unlock()
		return nil, false
	}
	if now.After(l.expires) {
		// Too late: the holder is a zombie even though the sweeper hasn't
		// run yet. Expire the lease now so the answer doesn't depend on
		// sweep timing.
		delete(p.leases, leaseID)
		p.mu.Unlock()
		if p.metrics != nil {
			p.metrics.expirations.Inc()
		}
		l.d.finish(dispatchOutcome{err: fmt.Errorf(
			"remote: lease %s on task %s attempt %d expired (worker %s dead or partitioned)",
			l.id, l.d.spec.TaskID(), l.d.spec.Attempt, l.workerID)})
		return nil, false
	}
	if remove {
		delete(p.leases, leaseID)
	}
	p.mu.Unlock()
	return l, true
}

func (p *Pool) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	l, ok := p.takeLease(req.WorkerID, req.LeaseID, false)
	if !ok {
		if p.metrics != nil {
			p.metrics.zombies.Inc()
		}
		http.Error(w, "remote: lease "+req.LeaseID+" gone", http.StatusGone)
		return
	}
	p.mu.Lock()
	// Re-check under the lock: the sweeper may have expired the lease
	// between takeLease and here.
	if cur, live := p.leases[req.LeaseID]; live && cur == l {
		l.expires = p.now().Add(p.opts.LeaseTTL)
		p.mu.Unlock()
		if p.metrics != nil {
			p.metrics.heartbeats.Inc()
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
	p.mu.Unlock()
	if p.metrics != nil {
		p.metrics.zombies.Inc()
	}
	http.Error(w, "remote: lease "+req.LeaseID+" gone", http.StatusGone)
}

// handleComplete resolves a lease with the worker's result or error. The
// lease must still be live: a worker whose lease expired — even one that
// finished the work — gets 410, because the coordinator already charged
// the attempt as failed and may have re-executed it elsewhere. The
// zombie's attempt-scoped output simply never gets promoted: one attempt
// per task is promoted, across the process boundary too.
func (p *Pool) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	l, ok := p.takeLease(req.WorkerID, req.LeaseID, true)
	if !ok {
		if p.metrics != nil {
			p.metrics.zombies.Inc()
		}
		http.Error(w, "remote: lease "+req.LeaseID+" gone", http.StatusGone)
		return
	}
	out := dispatchOutcome{result: req.Result}
	if req.Error != "" {
		out = dispatchOutcome{err: fmt.Errorf("remote: worker %s: %s", req.WorkerID, req.Error)}
	} else if req.Result == nil {
		out = dispatchOutcome{err: fmt.Errorf("remote: worker %s returned neither result nor error", req.WorkerID)}
	}
	l.d.finish(out)
	w.WriteHeader(http.StatusNoContent)
}
