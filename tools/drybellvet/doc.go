// Command drybellvet is the repository's invariant checker: a multichecker
// of six repo-specific analyzers that promote the correctness rules the
// distributed runtime and artifact encoders rely on — deterministic output,
// context cancellation flow, forward-slash DFS keys, mutex discipline,
// checked vote encoding, and a production tree free of test-only code —
// from review lore into a compile-time gate.
//
// Usage:
//
//	go run ./tools/drybellvet [-checks name,name] [package patterns]
//
// With no patterns it checks ./... ; the nested bench module is always
// loaded and checked too. Exit status 1 means findings. CI runs it
// repo-wide (the drybellvet job) and `make vet` is the local entry point;
// `make verify` includes it.
//
// # Analyzers
//
//   - determinism: pipeline output must be byte-identical run over run and
//     host over host. Flags range-over-map, time.Now, the process-seeded
//     math/rand globals and runtime.GOMAXPROCS/NumCPU in deterministic
//     packages. Seeded generators (rand.New(rand.NewSource(k))) are fine.
//   - ctxflow: cancellation must reach every long-running loop. Flags
//     context.Background()/TODO() inside functions that already receive a
//     ctx (detaching from the caller's cancellation), and loops that call
//     out without consulting ctx (no ctx.Err() poll and no ctx-accepting
//     call in the body).
//   - dfspath: DFS keys are forward-slash strings on every platform. Flags
//     path/filepath calls and `+ "/" +` concatenation on DFS key strings;
//     keys are built with path.Join. The OS boundary lives in
//     internal/dfs/disk.go and is annotated.
//   - lockcheck: fields annotated `// guarded by <mu>` (doc or line
//     comment) must only be accessed with that mutex held. Tracks
//     Lock/Unlock/RLock/RUnlock flow including defer, branch merges, and
//     goroutine bodies (which start with nothing held). Writes under only
//     an RLock are a distinct diagnostic. Methods with a "Locked" name
//     suffix run with the caller's lock and are exempt.
//   - testonly: module-wide, so judge it over ./... . Flags an exported
//     func or method under internal/ that no non-test file of the root
//     module or bench/ references, unless it satisfies an interface a
//     loaded package can see. A testapi marker without a reason is a finding.
//   - voteenc: persisted vote bytes go through a checked encoder. Flags
//     raw integer conversions of labelmodel.Label (byte(v), int8(v), ...)
//     that bypass the range check of labelmodel.EncodeVotes or
//     VoteCounts.PutColumn.
//
// # Suppression markers
//
// Every finding either gets fixed or carries a marker with a justification
// after it. A marker suppresses its own line and the next line, so it can
// sit on its own line above multi-line statements:
//
//	//drybellvet:ordered    — map range is order-insensitive (commutative
//	                          fold, or collected then sorted)
//	//drybellvet:wallclock  — time.Now/rand for observability or jitter,
//	                          never artifact bytes
//	//drybellvet:detached   — context.Background on purpose (e.g. shutdown
//	                          drain must outlive the canceled serve ctx)
//	//drybellvet:tightloop  — loop is short/cleanup and must run to
//	                          completion even under cancellation
//	//drybellvet:ospath     — the deliberate DFS-key ↔ OS-path boundary
//	//drybellvet:notapath   — slash-joined string is a counter name or
//	                          List prefix, not a DFS key
//	//drybellvet:locked     — access is structurally safe without the lock
//	                          (single-threaded construction, post-join
//	                          read, freshly built unshared value)
//	//drybellvet:rawvote    — integer conversion of a Label that is not a
//	                          persisted vote byte (hash input, JSON field)
//	//drybellvet:schedule   — core-count read that a named test pins as not
//	                          changing results, or that is only reported
//	//drybellvet:testapi    — a test double or an oracle other packages'
//	                          tests share (on a type, covers its methods)
//
// The analyzers live under passes/, each with an analysistest-style golden
// suite in testdata/src/. The stdlib-only analysis framework (the subset
// of golang.org/x/tools/go/analysis this repo needs, typed via the go
// tool's export data) is in the analysis package.
package main
