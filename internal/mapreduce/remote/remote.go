// Package remote is the networked multi-node worker backend for the
// MapReduce runtime: it turns the paper's §5.4 production story — a fleet
// of shared-nothing workers exchanging data only through a distributed
// filesystem — from an in-process simulation into real processes talking
// HTTP.
//
// The coordinator side is a Pool. It serves one HTTP surface (Handler)
// carrying both the control plane and the data plane:
//
//   - worker registration and deregistration (every registration mints a
//     fresh worker identity, so a restarted worker can never be confused
//     with its previous incarnation),
//   - task leasing: registered workers long-poll for task dispatches; each
//     dispatch is covered by a lease that the worker must renew with
//     heartbeats. A lease that expires — the worker died, or a partition is
//     dropping its heartbeats — fails the dispatch, and the coordinator's
//     existing retry machinery re-executes the task exactly as it would
//     after an in-process worker crash. A zombie worker whose lease
//     expired gets 410 Gone for every later heartbeat or completion, so its
//     output can never displace the promoted attempt's.
//   - a minimal DFS gateway exposing the coordinator's dfs.FS, so workers
//     are genuinely shared-nothing: all task input and attempt-scoped
//     checkpoints flow through the coordinator's filesystem, and a task's
//     emitted values travel back in its completion report.
//
// Pool.Workers returns slot proxies implementing mapreduce.Worker, so a
// remote job is just mapreduce.Job{Workers: pool.Workers(), Code: key}:
// retry budgets, one promoted attempt per task, attempt isolation, and
// checkpoint/resume all apply unchanged across process boundaries.
//
// The worker side is RunWorker: a loop that registers with the coordinator,
// leases dispatches, resolves each TaskSpec's Code key in its job-code
// Registry (user functions live worker-side; only their names travel), and
// executes it with mapreduce.ExecuteTask against the coordinator's DFS
// gateway while a background goroutine renews the lease. On context
// cancellation (SIGTERM in drybelld) the worker drains gracefully: it stops
// leasing, finishes the task it holds, deregisters, and returns nil.
package remote

import (
	"time"

	"repro/internal/mapreduce"
)

// Protocol version prefix for every coordinator endpoint.
const apiPrefix = "/remote/v1"

// Wire types. All endpoints are POST with JSON bodies except the DFS
// gateway's file reads/writes, which carry raw bytes.
type (
	// registerRequest announces a worker. Name is advisory (diagnostics);
	// identity is the WorkerID the coordinator mints in response.
	registerRequest struct {
		Name string `json:"name"`
	}
	registerResponse struct {
		WorkerID string `json:"worker_id"`
	}

	// deregisterRequest removes a worker on graceful drain.
	deregisterRequest struct {
		WorkerID string `json:"worker_id"`
	}

	// leaseRequest asks for one task dispatch, long-polling up to Wait.
	leaseRequest struct {
		WorkerID string        `json:"worker_id"`
		Wait     time.Duration `json:"wait"`
	}
	// leaseResponse hands out a dispatch: the spec to execute and the lease
	// covering it. The worker must heartbeat well within TTL or the
	// coordinator declares it dead and re-executes the task elsewhere.
	leaseResponse struct {
		LeaseID string             `json:"lease_id"`
		TTL     time.Duration      `json:"ttl"`
		Spec    mapreduce.TaskSpec `json:"spec"`
	}

	// heartbeatRequest renews a lease.
	heartbeatRequest struct {
		WorkerID string `json:"worker_id"`
		LeaseID  string `json:"lease_id"`
	}

	// completeRequest reports a finished attempt: the result on success, or
	// the error that failed it (charged against the task's retry budget).
	completeRequest struct {
		WorkerID string                `json:"worker_id"`
		LeaseID  string                `json:"lease_id"`
		Result   *mapreduce.TaskResult `json:"result,omitempty"`
		Error    string                `json:"error,omitempty"`
	}

	// renameRequest / removeRequest are the DFS gateway's mutation bodies.
	renameRequest struct {
		Old string `json:"old"`
		New string `json:"new"`
	}
	removeRequest struct {
		Path string `json:"path"`
	}
	statResponse struct {
		Size int64 `json:"size"`
	}
)
