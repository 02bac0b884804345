package dfs

import (
	"fmt"
	"strings"
)

// ShardPath returns the canonical name of shard i of n for a base path,
// e.g. "labels/topic-00003-of-00010".
func ShardPath(base string, i, n int) string {
	if i < 0 || n <= 0 || i >= n {
		panic(fmt.Sprintf("dfs: invalid shard %d of %d", i, n))
	}
	return fmt.Sprintf("%s-%05d-of-%05d", base, i, n)
}

// ParseShardPath splits a shard path into its base name, shard index and
// shard count. ok is false for non-shard paths.
func ParseShardPath(path string) (base string, index, count int, ok bool) {
	i := strings.LastIndex(path, "-of-")
	if i < 6 {
		return "", 0, 0, false
	}
	countStr := path[i+4:]
	idxStr := path[i-5 : i]
	if len(countStr) != 5 || path[i-6] != '-' {
		return "", 0, 0, false
	}
	index, ok = parseDigits(idxStr)
	if !ok {
		return "", 0, 0, false
	}
	count, ok = parseDigits(countStr)
	if !ok {
		return "", 0, 0, false
	}
	if index < 0 || count <= 0 || index >= count {
		return "", 0, 0, false
	}
	return path[:i-6], index, count, true
}

// parseDigits parses a string of exactly 5 ASCII digits.
func parseDigits(s string) (int, bool) {
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// ListShards returns the complete, ordered shard set for base. It errors if
// shards are missing or disagree on the shard count — a partially written
// output must never be consumed (paper: MapReduce outputs commit atomically).
func ListShards(fs FS, base string) ([]string, error) {
	paths, err := fs.List(base + "-")
	if err != nil {
		return nil, err
	}
	count := -1
	found := map[int]string{}
	for _, p := range paths {
		b, idx, n, ok := ParseShardPath(p)
		if !ok || b != base {
			continue
		}
		if count == -1 {
			count = n
		} else if count != n {
			return nil, fmt.Errorf("dfs: inconsistent shard counts for %q: %d vs %d", base, count, n)
		}
		found[idx] = p
	}
	if count == -1 {
		return nil, fmt.Errorf("dfs: no shards found for %q", base)
	}
	out := make([]string, count)
	for i := 0; i < count; i++ {
		p, ok := found[i]
		if !ok {
			return nil, fmt.Errorf("dfs: shard %d of %d missing for %q", i, count, base)
		}
		out[i] = p
	}
	return out, nil
}

// PublishShard commits one shard atomically: the data is written to a
// ".partial" temp file and renamed into place, so readers only ever see a
// complete shard. All shard writers go through here, keeping the commit
// convention in one place.
func PublishShard(fs FS, base string, i, n int, data []byte) error {
	tmp := ShardPath(base, i, n) + ".partial"
	if err := fs.WriteFile(tmp, data); err != nil {
		return err
	}
	return fs.Rename(tmp, ShardPath(base, i, n))
}

// RemoveShards removes every shard of base whose shard count is not keep
// (keep 0 removes them all): a set rewritten with another count, or dropped,
// leaves no strays behind for ListShards to refuse. It stops at the first
// failed removal and returns its error.
func RemoveShards(fs FS, base string, keep int) error {
	paths, err := fs.List(base + "-")
	if err != nil {
		return err
	}
	for _, p := range paths {
		if b, _, n, ok := ParseShardPath(p); ok && b == base && n != keep {
			if err := fs.Remove(p); err != nil {
				return err
			}
		}
	}
	return nil
}
