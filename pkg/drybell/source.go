package drybell

import "iter"

// Source is a streaming sequence of examples for Stage and Run. It is a
// standard iter.Seq2 yielding (example, error) pairs, so any generator —
// a file reader, a database cursor, a network stream — can feed the
// pipeline without the corpus materializing as one example slice. (The
// encoded shard payloads are still buffered until the staging commit,
// since filesystem writes are whole-file; peak memory is the encoded
// bytes, not the decoded examples.) Yielding a non-nil error aborts
// staging with that error.
type Source[T any] = iter.Seq2[T, error]

// SliceSource adapts an in-memory slice to a Source.
func SliceSource[T any](xs []T) Source[T] {
	return func(yield func(T, error) bool) {
		for _, x := range xs {
			if !yield(x, nil) {
				return
			}
		}
	}
}
