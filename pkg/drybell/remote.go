package drybell

import (
	"context"
	"fmt"
	"net/http"
	"time"

	internallf "repro/internal/lf"
	"repro/internal/mapreduce/remote"
	"repro/pkg/drybell/lf"
)

// Multi-node execution. A pipeline normally simulates its cluster with an
// in-process worker pool; the types below replace that pool with real
// worker processes talking to the coordinator over HTTP, reproducing the
// paper's production topology — shared-nothing workers, all data through
// the distributed filesystem, failures handled by lease expiry and retry.
//
// Coordinator side: build a RemotePool over the pipeline's filesystem,
// serve pool.Handler() on an address workers can reach, pass
// WithRemoteWorkers(pool) to New, and (optionally) AwaitWorkers before
// Run. Worker side: register the same labeling-function set into a
// RemoteRegistry with RegisterRemoteLFs and call RunRemoteWorker — or just
// run `drybelld -mode worker`.

// RemotePool is the coordinator-side worker pool: it registers worker
// processes, leases tasks to them under heartbeat-renewed leases, and
// serves the pipeline's filesystem over a DFS gateway. See
// internal/mapreduce/remote for protocol details.
type RemotePool = remote.Pool

// RemoteRegistry maps job-code keys to the implementations a worker
// process carries.
type RemoteRegistry = remote.Registry

// NewRemoteRegistry returns an empty worker-side job registry.
func NewRemoteRegistry() *RemoteRegistry { return remote.NewRegistry() }

// RemotePoolOptions configures NewRemotePool.
type RemotePoolOptions struct {
	// FS must be the same filesystem the pipeline runs on (WithFS):
	// workers read staged input and commit votes through it via the
	// pool's DFS gateway. Required.
	FS FS
	// Slots is the pool's dispatch concurrency — how many tasks may be in
	// flight across all workers. Defaults to 8.
	Slots int
	// LeaseTTL is how long a worker may go silent before its task is
	// declared lost and retried elsewhere. Defaults to 5s.
	LeaseTTL time.Duration
	// Observer, when non-nil, records pool metrics (registrations,
	// leases, expirations, zombie rejections) and gateway I/O into its
	// metrics registry.
	Observer *Observer
}

// NewRemotePool builds a coordinator-side pool. Serve its Handler — e.g.
// http.ListenAndServe(addr, pool.Handler()) — wherever workers can reach
// it, and Close it when the pipeline is done.
func NewRemotePool(opts RemotePoolOptions) (*RemotePool, error) {
	po := remote.PoolOptions{
		FS:       opts.FS,
		Slots:    opts.Slots,
		LeaseTTL: opts.LeaseTTL,
	}
	if opts.Observer != nil {
		po.Metrics = opts.Observer.Metrics
	}
	return remote.NewPool(po)
}

// WithRemoteWorkers routes the pipeline's labeling-function jobs to a
// remote pool's workers instead of the in-process pool. The pool must be
// built over the pipeline's filesystem, and every worker must carry the
// pipeline's labeling-function set (RegisterRemoteLFs with the same
// functions in the same order). Options that shape the in-process pool
// (WithParallelism) are ignored for routed jobs; retries, speculation
// (WithStragglerAfter), and resume apply unchanged.
func WithRemoteWorkers(pool *RemotePool) Option {
	return Option{f: func(s *settings) {
		if pool == nil {
			s.fail(fmt.Errorf("drybell: WithRemoteWorkers(nil)"))
			return
		}
		s.workers = pool.Workers()
	}}
}

// RegisterRemoteLFs registers the vote job for the labeling-function set
// into a worker's job registry, under the same code key the coordinator
// stamps into dispatched tasks. The set must match the coordinator's —
// same functions, same order (the order fixes the vote matrix's column
// layout, so the code key embeds it) — and decode must be the same codec
// the pipeline was built with. A coordinator whose set the worker does not
// carry fails jobs with a deployment-skew error rather than mislabeling.
func RegisterRemoteLFs[T any](reg *RemoteRegistry, lfs []lf.LF[T], decode func([]byte) (T, error)) error {
	if reg == nil {
		return fmt.Errorf("drybell: RegisterRemoteLFs(nil registry)")
	}
	if decode == nil {
		return fmt.Errorf("drybell: RegisterRemoteLFs requires a decode function")
	}
	return internallf.RegisterVoteJobs(reg, lfs, decode)
}

// RemoteWorkerOptions configures RunRemoteWorker.
type RemoteWorkerOptions struct {
	// Coordinator is the base URL of the coordinator's pool handler, e.g.
	// "http://10.0.0.1:9090". Required.
	Coordinator string
	// Name labels the worker in coordinator diagnostics; identity is
	// minted by the coordinator at registration.
	Name string
	// Jobs is the worker's job registry (RegisterRemoteLFs). Required.
	Jobs *RemoteRegistry
	// Client overrides the HTTP client for coordinator traffic.
	Client *http.Client
	// DrainTimeout bounds the graceful drain: a task still executing this
	// long after cancellation is abandoned (its lease expires and the
	// coordinator re-runs it elsewhere), so SIGTERM cannot hang on a stuck
	// task. 0 drains without bound.
	DrainTimeout time.Duration
	// HedgeReads, when > 0, races a duplicate DFS gateway read when the
	// first is still unanswered after this long; first answer wins.
	HedgeReads time.Duration
	// Observer, when non-nil, records the worker's resilience decisions
	// (retries, hedges, breaker state) into its metrics registry.
	Observer *Observer
}

// RunRemoteWorker registers with the coordinator and executes leased tasks
// until ctx is canceled, then drains gracefully: it finishes the task it
// holds, deregisters, and returns nil. This is the loop behind
// `drybelld -mode worker`.
func RunRemoteWorker(ctx context.Context, opts RemoteWorkerOptions) error {
	wo := remote.WorkerOptions{
		Coordinator:  opts.Coordinator,
		Name:         opts.Name,
		Jobs:         opts.Jobs,
		Client:       opts.Client,
		DrainTimeout: opts.DrainTimeout,
		HedgeReads:   opts.HedgeReads,
	}
	if opts.Observer != nil {
		wo.Metrics = opts.Observer.Metrics
	}
	return remote.RunWorker(ctx, wo)
}
