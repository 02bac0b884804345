package serving

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dfs"
	"repro/internal/features"
)

func artifactFixture(name string) *Artifact {
	return &Artifact{
		Name: name, Kind: "logreg", Threshold: 0.5, FeatureDim: 8,
		Signals: []string{"text", "url"},
		Payload: []byte(`{"indices":[1],"values":[2.5]}`),
	}
}

// TestRegistryLifecycle walks one model line through stage, promote and
// rollback with a minimal artifact, including the refusals: live before any
// promote, rollback past v1, and promote of a version never staged.
func TestRegistryLifecycle(t *testing.T) {
	reg, err := OpenFSRegistry(dfs.NewMem(), "serving")
	if err != nil {
		t.Fatal(err)
	}
	a := &Artifact{Name: "m", Kind: "logreg", FeatureDim: 4, Payload: []byte(`{}`)}
	v1, err := reg.Stage(a)
	if err != nil || v1.Version != 1 {
		t.Fatalf("stage v1: %v, %v", v1, err)
	}
	v2, _ := reg.Stage(a)
	if v2.Version != 2 {
		t.Fatalf("stage v2 got version %d", v2.Version)
	}
	if _, err := reg.Live("m"); err == nil {
		t.Error("live before promote")
	}
	if err := reg.Promote("m", 2); err != nil {
		t.Fatal(err)
	}
	live, err := reg.Live("m")
	if err != nil || live.Version != 2 {
		t.Fatalf("live = %v, %v", live, err)
	}
	if err := reg.Rollback("m"); err != nil {
		t.Fatal(err)
	}
	live, _ = reg.Live("m")
	if live.Version != 1 {
		t.Errorf("after rollback version = %d", live.Version)
	}
	if err := reg.Rollback("m"); err == nil {
		t.Error("rollback past v1 accepted")
	}
	if err := reg.Promote("m", 9); err == nil {
		t.Error("promote unknown version accepted")
	}
	if len(reg.versions("m")) != 2 {
		t.Errorf("versions=%v", reg.versions("m"))
	}
}

func TestRegistryRejectsAnonymous(t *testing.T) {
	reg, _ := OpenFSRegistry(dfs.NewMem(), "serving")
	if _, err := reg.Stage(&Artifact{}); err == nil {
		t.Error("anonymous artifact accepted")
	}
}

func TestFSRegistryLifecycle(t *testing.T) {
	fs := dfs.NewMem()
	reg, err := OpenFSRegistry(fs, "serving")
	if err != nil {
		t.Fatal(err)
	}
	v1, err := reg.Stage(artifactFixture("m"))
	if err != nil || v1.Version != 1 {
		t.Fatalf("stage v1: %v, %v", v1, err)
	}
	v2, _ := reg.Stage(artifactFixture("m"))
	if v2.Version != 2 {
		t.Fatalf("stage v2 got version %d", v2.Version)
	}
	if _, err := reg.Live("m"); err == nil {
		t.Error("live before promote")
	}
	if err := reg.Promote("m", 2); err != nil {
		t.Fatal(err)
	}
	live, err := reg.Live("m")
	if err != nil || live.Version != 2 || live.Threshold != 0.5 {
		t.Fatalf("live = %+v, %v", live, err)
	}
	if err := reg.Rollback("m"); err != nil {
		t.Fatal(err)
	}
	if live, _ := reg.Live("m"); live.Version != 1 {
		t.Errorf("after rollback version = %d", live.Version)
	}
	if err := reg.Rollback("m"); err == nil {
		t.Error("rollback past v1 accepted")
	}
	if got := reg.versions("m"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("versions = %v", got)
	}
}

func TestFSRegistryPromoteNeverStaged(t *testing.T) {
	reg, _ := OpenFSRegistry(dfs.NewMem(), "serving")
	if err := reg.Promote("ghost", 1); err == nil {
		t.Error("promoted a model line that was never staged")
	}
	if _, err := reg.Stage(artifactFixture("m")); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote("m", 7); err == nil {
		t.Error("promoted a version that was never staged")
	}
}

// TestFSRegistryRejectsBadNames: a model name is one path segment under
// models/. Every method taking a name refuses one that is not — empty, a dot
// segment the path would resolve away, or one holding a slash or a space —
// and nothing lands on the filesystem for it.
func TestFSRegistryRejectsBadNames(t *testing.T) {
	fs := dfs.NewMem()
	reg, _ := OpenFSRegistry(fs, "serving")
	if _, err := reg.Stage(artifactFixture("m")); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote("m", 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", ".", "..", "a/b", "../m", "a b"} {
		if _, err := reg.Stage(artifactFixture(name)); err == nil {
			t.Errorf("Stage accepted model name %q", name)
		}
		if err := reg.Promote(name, 1); err == nil {
			t.Errorf("Promote accepted model name %q", name)
		}
		if err := reg.Rollback(name); err == nil {
			t.Errorf("Rollback accepted model name %q", name)
		}
		if _, err := reg.Live(name); err == nil {
			t.Errorf("Live accepted model name %q", name)
		}
	}
	paths, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"serving/models/m/live", "serving/models/m/v000001.json"}; !slices.Equal(paths, want) {
		t.Errorf("files = %v, want %v", paths, want)
	}
}

// TestFSRegistryRefusesChangedBytes: an artifact or live marker whose bytes
// changed after they were written — here one digit of a weight, then of the
// marker — still parses as JSON, so the registry used to serve the changed
// weights, or another version, without a word. Every read of it must fail
// naming the file.
func TestFSRegistryRefusesChangedBytes(t *testing.T) {
	fs := dfs.NewMem()
	reg, _ := OpenFSRegistry(fs, "serving")
	for range 2 {
		if _, err := reg.Stage(artifactFixture("m")); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Promote("m", 2); err != nil {
		t.Fatal(err)
	}
	flip := func(path, from, to string) {
		t.Helper()
		raw, err := fs.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		changed := strings.Replace(string(raw), from, to, 1)
		if changed == string(raw) {
			t.Fatalf("%s holds no %q", path, from)
		}
		if err := fs.WriteFile(path, []byte(changed)); err != nil {
			t.Fatal(err)
		}
	}
	expectNamed := func(what string, err error, path string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s = %v, want an error naming %s", what, err, path)
		}
	}

	artifact := "serving/models/m/v000002.json"
	flip(artifact, "2.5", "3.5")
	_, err := reg.Live("m")
	expectNamed("Live", err, artifact)
	expectNamed("Promote", reg.Promote("m", 2), artifact)

	marker := "serving/models/m/live"
	flip(marker, `"body":2`, `"body":1`)
	_, err = reg.Live("m")
	expectNamed("Live", err, marker)
	expectNamed("Rollback", reg.Rollback("m"), marker)
}

// TestFSRegistrySurvivesRestart is the daemon-restart story: a fresh
// registry over the same FS recovers staged versions and the live marker.
func TestFSRegistrySurvivesRestart(t *testing.T) {
	fs, err := dfs.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg1, _ := OpenFSRegistry(fs, "serving")
	if _, err := reg1.Stage(artifactFixture("m")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg1.Stage(artifactFixture("m")); err != nil {
		t.Fatal(err)
	}
	if err := reg1.Promote("m", 2); err != nil {
		t.Fatal(err)
	}

	reg2, _ := OpenFSRegistry(fs, "serving")
	live, err := reg2.Live("m")
	if err != nil {
		t.Fatalf("restarted registry lost live version: %v", err)
	}
	if live.Version != 2 || live.Name != "m" || len(live.Signals) != 2 {
		t.Errorf("recovered artifact = %+v", live)
	}
	if srv, err := NewServer(live); err != nil {
		t.Errorf("recovered artifact not servable: %v", err)
	} else if srv.Artifact().Version != 2 {
		t.Errorf("served version = %d", srv.Artifact().Version)
	}
	if got := reg2.versions("m"); len(got) != 2 {
		t.Errorf("recovered versions = %v", got)
	}
}

func TestFSRegistryConcurrentStage(t *testing.T) {
	reg, _ := OpenFSRegistry(dfs.NewMem(), "serving")
	const n = 16
	var wg sync.WaitGroup
	versions := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := reg.Stage(artifactFixture("m"))
			if err != nil {
				t.Error(err)
				return
			}
			versions[i] = a.Version
		}(i)
	}
	wg.Wait()
	seen := map[int]bool{}
	for _, v := range versions {
		if seen[v] {
			t.Fatalf("version %d assigned twice", v)
		}
		seen[v] = true
	}
	if got := reg.versions("m"); len(got) != n {
		t.Errorf("staged %d versions, listed %d", n, len(got))
	}
}

func TestHandleHotSwapKeepsInFlightConsistent(t *testing.T) {
	mk := func(version int, weight string) *Server {
		a := artifactFixture("m")
		a.Version = version
		a.Payload = []byte(`{"indices":[1],"values":[` + weight + `]}`)
		srv, err := NewServer(a)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	h, err := NewHandle(mk(1, "2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHandle(nil); err == nil {
		t.Error("nil server accepted")
	}
	x := &features.SparseVector{Indices: []uint32{1}, Values: []float64{1}}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// A request scores against one snapshot for its whole
				// lifetime: the score may not change under its feet even
				// when swaps land mid-request.
				srv := h.Current()
				score := srv.Score(x)
				if got := srv.Score(x); got != score {
					t.Errorf("score changed under one snapshot: %v then %v", score, got)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			h.Swap(mk(2, "-2"))
		} else {
			h.Swap(mk(1, "2"))
		}
	}
	close(stop)
	wg.Wait()
	if h.Swaps() != 200 {
		t.Errorf("swaps = %d, want 200", h.Swaps())
	}
	if v := h.Version(); v != 1 {
		t.Errorf("final version = %d, want 1", v)
	}
}
