package drybell

import (
	"repro/internal/dfs"
	"repro/internal/labelmodel"
	internallf "repro/internal/lf"
	"repro/pkg/drybell/lf"
)

// The SDK re-exports the pipeline's data types under one import path. The
// labeling-function authoring API lives in the subpackage
// repro/pkg/drybell/lf; the central aliases below re-export its core types
// so simple pipelines need a single import.

// LF is one labeling function: metadata plus a vote. Author them with the
// templates and combinators of repro/pkg/drybell/lf (Func, NLPFunc,
// GraphFunc, ModelFunc, AggregateFunc, Threshold, Invert, FirstOf, All).
type LF[T any] = lf.LF[T]

// Meta describes one labeling function (name, category, servability).
type Meta = lf.Meta

// Category buckets weak-supervision sources the way Figure 2 does.
type Category = lf.Category

// Figure 2 categories.
const (
	SourceHeuristic  = lf.SourceHeuristic
	ContentHeuristic = lf.ContentHeuristic
	ModelBased       = lf.ModelBased
	GraphBased       = lf.GraphBased
)

// Label is one labeling-function vote.
type Label = labelmodel.Label

// The three vote values.
const (
	Positive = labelmodel.Positive
	Negative = labelmodel.Negative
	Abstain  = labelmodel.Abstain
)

// Analysis is the development-loop report over an executed label matrix;
// LFAnalysis is its per-function row. See lf.Analyze and WithDevLabels.
type (
	Analysis   = lf.Analysis
	LFAnalysis = lf.LFAnalysis
)

// Matrix is the assembled m×n label matrix Λ.
type Matrix = labelmodel.Matrix

// Model is the trained generative label model; its Accuracies and
// RankByAccuracy expose the §3.3 diagnostics.
type Model = labelmodel.Model

// LabelModelOptions configure generative-model training (steps, batch size,
// learning rate, priors). See WithLabelModel.
type LabelModelOptions = labelmodel.Options

// Report summarizes an ExecuteLFs stage; LFReport is its per-function entry.
type (
	Report   = internallf.Report
	LFReport = internallf.LFReport
)

// FS is the distributed filesystem surface the pipeline stages data on.
type FS = dfs.FS

// NewMemFS returns a fresh in-memory filesystem, the default backing store.
func NewMemFS() FS { return dfs.NewMem() }

// NewDiskFS returns a disk-backed filesystem rooted at dir, for pipelines
// whose state must survive the process (and be shared between processes).
func NewDiskFS(dir string) (FS, error) { return dfs.NewDisk(dir) }

// ListShards returns the complete, ordered shard set committed under base
// (e.g. a LabelsPath), erroring on missing or inconsistent
// shards so a partially written output is never consumed.
func ListShards(fs FS, base string) ([]string, error) { return dfs.ListShards(fs, base) }

// Names returns labeling-function names in column order — the name list
// LoadMatrix expects.
func Names[T any](lfs []LF[T]) []string { return lf.Names(lfs) }

// ServableIndices returns the column indices of servable functions, the
// Table 3 ablation subset.
func ServableIndices[T any](lfs []LF[T]) []int { return lf.ServableIndices(lfs) }

// Census counts labeling functions per category — the Figure 2 histogram.
func Census[T any](lfs []LF[T]) map[Category]int { return lf.Census(lfs) }

// LogicalORPosteriors is the pre-DryBell status-quo baseline: label 1 iff
// any function voted positive (§3.3, §6.4).
func LogicalORPosteriors(mx *Matrix) []float64 { return labelmodel.LogicalORPosteriors(mx) }

// HardLabels thresholds probabilistic labels at 1/2 into votes.
func HardLabels(posteriors []float64) []Label { return labelmodel.HardLabels(posteriors) }
