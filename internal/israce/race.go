//go:build race

// Package israce reports whether the program was built with the race
// detector. Tests that pin allocation counts of code using a sync.Pool ask:
// under the detector a Pool drops a quarter of what it is given, on purpose.
package israce

const Enabled = true
