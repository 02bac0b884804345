package dfs

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the cause carried by every failure a FaultFS injects, so
// tests can tell injected faults from real ones.
var ErrInjected = fmt.Errorf("injected fault")

// Op names one filesystem operation class for fault injection.
type Op string

// Operation classes a FaultFS can fail.
const (
	OpWrite  Op = "write"
	OpRead   Op = "read"
	OpRename Op = "rename"
	OpRemove Op = "remove"
	OpList   Op = "list"
	OpStat   Op = "stat"
)

// FaultFS wraps an FS and injects failures and latency, deterministically
// under a seed, for the distributed-runtime tests: probabilistic faults
// model flaky cluster storage, scripted faults kill a specific operation on
// a specific path, and latency widens race windows. A fault fires before
// the wrapped operation runs, so a failed write writes nothing — the same
// all-or-nothing discipline the real FS contract promises.
//
//drybellvet:testapi — the fault-injection double of the runtime, lf, drybelld and SDK tests
type FaultFS struct {
	inner FS

	mu       sync.Mutex
	rng      *rand.Rand    // guarded by mu
	probs    []*probRule   // guarded by mu
	scripts  []*scriptRule // guarded by mu
	latency  time.Duration // guarded by mu
	injected int64         // guarded by mu
	ops      map[Op]int64  // guarded by mu
}

// scriptRule fails the next Times matching operations.
type scriptRule struct {
	op    Op
	match string // substring of the path ("" matches all)
	times int
}

// probRule fails matching operations independently with probability p.
type probRule struct {
	op    Op
	match string
	p     float64
}

// NewFaultFS wraps inner with deterministic fault injection under seed.
// With no configured faults it is a transparent pass-through.
//
//drybellvet:testapi — builds the FaultFS test double
func NewFaultFS(inner FS, seed int64) *FaultFS {
	return &FaultFS{
		inner: inner,
		rng:   rand.New(rand.NewSource(seed)),
		ops:   make(map[Op]int64),
	}
}

// FailProb makes each operation of class op fail independently with
// probability p.
func (f *FaultFS) FailProb(op Op, p float64) { f.FailProbPath(op, "", p) }

// FailProbPath is FailProb scoped to paths containing match, so tests can
// aim probabilistic faults at operations the runtime retries (e.g. attempt
// commits) without also hitting unretried writes.
func (f *FaultFS) FailProbPath(op Op, match string, p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.probs = append(f.probs, &probRule{op: op, match: match, p: p})
}

// FailNext scripts a fault: the next times operations of class op whose path
// contains match (empty matches any path) fail. Rules are consumed in the
// order they were added.
func (f *FaultFS) FailNext(op Op, match string, times int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.scripts = append(f.scripts, &scriptRule{op: op, match: match, times: times})
}

// SetLatency injects a fixed delay before every operation, slowing every
// attempt and widening the race windows concurrent-task tests rely on.
func (f *FaultFS) SetLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
}

// Injected returns how many faults have fired.
func (f *FaultFS) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// OpCount returns how many operations of the class were attempted
// (including ones that drew an injected fault).
func (f *FaultFS) OpCount(op Op) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops[op]
}

// check decides one operation's fate: injected latency first, then scripted
// rules in order, then the probabilistic roll.
func (f *FaultFS) check(op Op, path string) error {
	f.mu.Lock()
	f.ops[op]++
	delay := f.latency
	var fired bool
	for _, r := range f.scripts {
		if r.times > 0 && r.op == op && strings.Contains(path, r.match) {
			r.times--
			fired = true
			break
		}
	}
	if !fired {
		for _, r := range f.probs {
			if r.op == op && strings.Contains(path, r.match) && f.rng.Float64() < r.p {
				fired = true
				break
			}
		}
	}
	if fired {
		f.injected++
	}
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if fired {
		return &PathError{string(op), path, ErrInjected}
	}
	return nil
}

// WriteFile implements FS.
func (f *FaultFS) WriteFile(path string, data []byte) error {
	if err := f.check(OpWrite, path); err != nil {
		return err
	}
	return f.inner.WriteFile(path, data)
}

// ReadFile implements FS.
func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	if err := f.check(OpRead, path); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(path)
}

// Rename implements FS. Scripted rules match against either path.
func (f *FaultFS) Rename(oldPath, newPath string) error {
	if err := f.check(OpRename, oldPath+" -> "+newPath); err != nil {
		return err
	}
	return f.inner.Rename(oldPath, newPath)
}

// Remove implements FS.
func (f *FaultFS) Remove(path string) error {
	if err := f.check(OpRemove, path); err != nil {
		return err
	}
	return f.inner.Remove(path)
}

// List implements FS.
func (f *FaultFS) List(prefix string) ([]string, error) {
	if err := f.check(OpList, prefix); err != nil {
		return nil, err
	}
	return f.inner.List(prefix)
}

// Stat implements FS.
func (f *FaultFS) Stat(path string) (int64, error) {
	if err := f.check(OpStat, path); err != nil {
		return 0, err
	}
	return f.inner.Stat(path)
}
