package remote

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/dfs"
	"repro/internal/mapreduce"
)

// JobCode builds the Mapper a worker runs for one code key. The TaskSpec a
// worker leases carries only the key (mapreduce.Job.Code); the code itself —
// the Mapper, and everything it closes over — lives in the worker process,
// exactly as the paper's labeling functions are binaries deployed to the
// cluster rather than data shipped with tasks.
type JobCode struct {
	// Build constructs the job's Mapper. It runs once per worker process per
	// code key — the result is cached across tasks — against the
	// coordinator's DFS gateway and the job's staged input base, so code
	// that needs a whole-corpus pass before its first task (a labeling
	// function's corpus-fit stage) can take it here.
	Build func(ctx context.Context, fs dfs.FS, inputBase string) (mapreduce.Mapper, error)
}

// Registry maps code keys to worker-side job implementations. A worker
// resolves every leased TaskSpec's Code here; a key the worker does not
// carry fails the attempt with a descriptive error (and, after the retry
// budget, the job), which is the deployment-skew signal an operator needs.
type Registry struct {
	mu    sync.RWMutex
	codes map[string]JobCode // guarded by mu
}

// NewRegistry returns an empty job-code registry.
func NewRegistry() *Registry {
	return &Registry{codes: make(map[string]JobCode)}
}

// Register adds code under key. Registering a key twice is an error: two
// implementations for one key means the worker no longer knows what the
// coordinator dispatched.
func (r *Registry) Register(key string, code JobCode) error {
	if key == "" {
		return fmt.Errorf("remote: job code needs a key")
	}
	if code.Build == nil {
		return fmt.Errorf("remote: job code %q has no Build", key)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.codes[key]; dup {
		return fmt.Errorf("remote: job code %q already registered", key)
	}
	r.codes[key] = code
	return nil
}

// Lookup returns the code registered under key.
func (r *Registry) Lookup(key string) (JobCode, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.codes[key]
	return c, ok
}

// Keys returns the registered code keys, sorted.
func (r *Registry) Keys() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.codes))
	//drybellvet:ordered — collection only; sorted immediately below
	for k := range r.codes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
