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
	if i < 6 || len(path) != i+9 || path[i-6] != '-' {
		return "", 0, 0, false
	}
	digits := func(s string) (n int) { // exactly five ASCII digits, or -1
		for _, c := range []byte(s) {
			if c < '0' || c > '9' {
				return -1
			}
			n = n*10 + int(c-'0')
		}
		return n
	}
	index, count = digits(path[i-5:i]), digits(path[i+4:])
	if index < 0 || count <= 0 || index >= count {
		return "", 0, 0, false
	}
	return path[:i-6], index, count, true
}

// ListShards returns the shard paths of the set committed at base, in shard
// order, once Stat has confirmed that its commit record describes the shards
// standing there (Committed). Shards a record does not name are not part of
// the set: a partially written output is never consumed (paper: MapReduce
// outputs commit atomically).
func ListShards(fs FS, base string) ([]string, error) {
	r, err := Committed(fs, base)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(r.Shards))
	for i := range out {
		out[i] = ShardPath(base, i, len(out))
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
