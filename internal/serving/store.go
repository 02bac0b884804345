package serving

import (
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dfs"
)

// FSRegistry is the versioned model registry of the promotion workflow —
// Stage → Validate → Promote, with Rollback restoring the previous live
// version — backed by the distributed filesystem, so the registry outlives
// any one process: artifacts staged by a training run are visible to a
// serving daemon on the same FS, and a daemon restart recovers the promoted
// version from filesystem state alone.
//
// Layout under the prefix:
//
//	<prefix>/models/<name>/v000042.json   one staged artifact version
//	<prefix>/models/<name>/live           the live version's number
//
// Both are checksummed JSON files (dfs.WriteJSON), so a flipped byte in a
// weight or in the marker fails the read naming the file instead of serving
// changed weights or another version.
//
// Every read goes to the FS, so registries in different processes sharing
// one FS observe each other's stages and promotions. The mutex serializes
// only this process's stage operations (list-then-write); cross-process
// writers racing Stage can collide on a version number, which mirrors real
// registries requiring one staging pipeline per model line.
type FSRegistry struct {
	fs     dfs.FS
	prefix string
	mu     sync.Mutex
}

// OpenFSRegistry returns a registry persisting under prefix on fs. The
// prefix need not exist yet; an empty prefix uses "serving".
func OpenFSRegistry(fs dfs.FS, prefix string) (*FSRegistry, error) {
	if fs == nil {
		return nil, fmt.Errorf("serving: OpenFSRegistry(nil fs)")
	}
	if prefix == "" {
		prefix = "serving"
	}
	return &FSRegistry{fs: fs, prefix: prefix}, nil
}

// checkName refuses a model name that is not one path segment of its own:
// empty, "." or "..", or holding a slash or a space. modelDir joins the name
// into a path, which would resolve a dot segment outside models/.
func checkName(name string) error {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, "/ ") {
		return fmt.Errorf("serving: model name %q is not a valid registry path segment", name)
	}
	return nil
}

func (r *FSRegistry) modelDir(name string) string {
	return path.Join(r.prefix, "models", name)
}

func (r *FSRegistry) versionPath(name string, version int) string {
	return fmt.Sprintf("%s/v%06d.json", r.modelDir(name), version)
}

func (r *FSRegistry) livePath(name string) string {
	return path.Join(r.modelDir(name), "live")
}

// Stage registers a new version of the artifact and returns it with the
// version assigned. Staged versions are not served until promoted.
func (r *FSRegistry) Stage(a *Artifact) (*Artifact, error) {
	if err := checkName(a.Name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	versions := r.versions(a.Name)
	next := 1
	if len(versions) > 0 {
		next = versions[len(versions)-1] + 1
	}
	cp := *a
	cp.Version = next
	if _, err := dfs.WriteJSON(r.fs, r.versionPath(a.Name, next), &cp); err != nil {
		return nil, fmt.Errorf("serving: stage %s v%d: %w", a.Name, next, err)
	}
	return &cp, nil
}

// Promote makes the given version live. Only a staged version can go live.
func (r *FSRegistry) Promote(name string, version int) error {
	if err := checkName(name); err != nil {
		return err
	}
	if _, err := r.artifact(name, version); dfs.IsNotExist(err) {
		return fmt.Errorf("serving: %s has no staged version %d", name, version)
	} else if err != nil {
		return err
	}
	return r.setLive(name, version)
}

func (r *FSRegistry) setLive(name string, version int) error {
	if _, err := dfs.WriteJSON(r.fs, r.livePath(name), version); err != nil {
		return fmt.Errorf("serving: mark %s v%d live: %w", name, version, err)
	}
	return nil
}

// Rollback reverts to the previous version (live−1).
func (r *FSRegistry) Rollback(name string) error {
	if err := checkName(name); err != nil {
		return err
	}
	cur, err := r.liveVersion(name)
	if err != nil {
		return err
	}
	if cur <= 1 {
		return fmt.Errorf("serving: %s has no version to roll back to", name)
	}
	if _, err := r.artifact(name, cur-1); dfs.IsNotExist(err) {
		return fmt.Errorf("serving: rollback target %s v%d is not staged", name, cur-1)
	} else if err != nil {
		return err
	}
	return r.setLive(name, cur-1)
}

// Live returns the currently served artifact for the model line.
func (r *FSRegistry) Live(name string) (*Artifact, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	v, err := r.liveVersion(name)
	if err != nil {
		return nil, err
	}
	if v == 0 {
		return nil, fmt.Errorf("serving: %s has no live version", name)
	}
	return r.artifact(name, v)
}

// liveVersion returns the model line's live version, 0 when none is marked.
func (r *FSRegistry) liveVersion(name string) (int, error) {
	var v int
	if _, err := dfs.ReadJSON(r.fs, r.livePath(name), &v); dfs.IsNotExist(err) {
		return 0, nil
	} else if err != nil {
		return 0, err
	}
	if v < 1 {
		return 0, fmt.Errorf("serving: live marker %s names version %d", r.livePath(name), v)
	}
	return v, nil
}

// artifact reads one staged version; a missing one is the filesystem's
// error, as is, so dfs.IsNotExist tells absence from damage.
func (r *FSRegistry) artifact(name string, version int) (*Artifact, error) {
	var a Artifact
	if _, err := dfs.ReadJSON(r.fs, r.versionPath(name, version), &a); err != nil {
		return nil, err
	}
	return &a, nil
}

// versions lists staged version numbers, ascending.
func (r *FSRegistry) versions(name string) []int {
	paths, err := r.fs.List(r.modelDir(name) + "/v") //drybellvet:notapath — List prefix ending mid-filename ("…/v"), not a key
	if err != nil {
		return nil
	}
	var out []int
	for _, p := range paths {
		base := p[strings.LastIndexByte(p, '/')+1:]
		if !strings.HasPrefix(base, "v") || !strings.HasSuffix(base, ".json") {
			continue
		}
		v, err := strconv.Atoi(strings.TrimPrefix(strings.TrimSuffix(base, ".json"), "v"))
		if err != nil || v < 1 {
			continue
		}
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
