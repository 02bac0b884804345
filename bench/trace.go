package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call. Times are offsets from the tracer's epoch. Rep ties the spans of one
// repetition (or incremental round) together; probes carry rep -1.
type span struct {
	ID, Parent int // Parent 0 = root
	Name       string
	Rep        int
	Start, End time.Duration
}

// tracer keeps spans in memory until the run ends. The harness is
// single-threaded wherever it records spans, so no lock is needed. A nil
// tracer records nothing, which is how the untraced run shares code with
// the traced one.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: clock()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, rep int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Rep: rep, Start: clock().Sub(t.epoch), End: -1})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.End = clock().Sub(t.epoch)
	return s.End - s.Start
}

// do records fn as a span and passes its error through.
func (t *tracer) do(name string, parent, rep int, fn func() error) error {
	id := t.begin(name, parent, rep)
	err := fn()
	t.end(id)
	return err
}

// probe records fn as a root span of its own, outside any repetition, and
// returns how long it took in ms.
func (t *tracer) probe(name string, fn func() error) (float64, error) {
	id := t.begin(name, 0, -1)
	err := fn()
	return ms(t.end(id)), err
}

// durationsMs returns the duration of every finished span with that name.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval covered by its child spans (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// carrying the span_id/parent_id args tools/tracecheck validates.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args"`
}

// writeChrome writes the finished spans as Chrome trace-event JSON
// (Perfetto loads it). All spans are recorded on the harness goroutine, so
// one lane holds them and nesting renders as a flame graph.
func (t *tracer) writeChrome(path string) error {
	self := selfTimes(t.spans)
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Phase: "X",
			// Both ends are truncated to whole microseconds before the
			// difference is taken, so a child never starts after its
			// parent's rounded end.
			TS: s.Start.Microseconds(), Dur: max(s.End.Microseconds()-s.Start.Microseconds(), 1),
			PID: 1, TID: 1,
			Args: map[string]any{
				"span_id": s.ID, "parent_id": s.Parent, "rep": s.Rep,
				"self_us": self[s.ID].Microseconds(),
			},
		})
	}
	raw, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
