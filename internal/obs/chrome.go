package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace-event format's traceEvents
// array. Only "X" (complete) and "M" (metadata) phases are emitted.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`            // microseconds since trace start
	Dur   int64          `json:"dur,omitempty"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
	CName string         `json:"cname,omitempty"`
}

// chromeTrace is the top-level Chrome trace-event JSON object.
type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace renders the tracer's finished spans as Chrome trace-event
// JSON (https://ui.perfetto.dev loads it directly). Spans are packed onto
// lanes ("threads") greedily: a span shares a lane with its nearest open
// ancestor so nesting renders as a flame graph, while overlapping
// non-ancestor spans — concurrent task attempts — get
// their own lanes and render side by side as a Gantt chart.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	b, err := t.ChromeTrace()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ChromeTrace renders the trace as Chrome trace-event JSON bytes.
func (t *Tracer) ChromeTrace() ([]byte, error) {
	spans := t.Snapshot()
	events := []chromeEvent{{
		Name:  "process_name",
		Phase: "M",
		PID:   1,
		Args:  map[string]any{"name": "drybell"},
	}}
	if len(spans) == 0 {
		return json.Marshal(chromeTrace{DisplayTimeUnit: "ms", TraceEvents: events})
	}

	base := spans[0].Start
	parents := make(map[int64]int64, len(spans))
	for _, s := range spans {
		parents[s.ID] = s.Parent
	}
	isAncestor := func(anc, of int64) bool {
		for of != 0 {
			p := parents[of]
			if p == anc {
				return true
			}
			of = p
		}
		return false
	}

	// Each lane holds a stack of spans still open at the current sweep
	// position; spans arrive in start order, so popping finished spans and
	// checking the top for ancestry is enough to keep nesting on one lane.
	var lanes [][]SpanData
	laneOf := make([]int, len(spans))
	for i, s := range spans {
		placed := -1
		for li := range lanes {
			stack := lanes[li]
			for len(stack) > 0 && !stack[len(stack)-1].End.After(s.Start) {
				stack = stack[:len(stack)-1]
			}
			lanes[li] = stack
			if placed >= 0 {
				continue
			}
			if len(stack) == 0 || isAncestor(stack[len(stack)-1].ID, s.ID) {
				placed = li
			}
		}
		if placed < 0 {
			lanes = append(lanes, nil)
			placed = len(lanes) - 1
		}
		lanes[placed] = append(lanes[placed], s)
		laneOf[i] = placed
	}

	for i, s := range spans {
		args := map[string]any{
			"span_id":   s.ID,
			"parent_id": s.Parent,
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		ev := chromeEvent{
			Name:  s.Name,
			Phase: "X",
			TS:    s.Start.Sub(base).Microseconds(),
			Dur:   max64(s.End.Sub(s.Start).Microseconds(), 1),
			PID:   1,
			TID:   laneOf[i],
			Args:  args,
		}
		if s.Err != "" {
			ev.Args["error"] = s.Err
			ev.CName = "terrible"
		}
		events = append(events, ev)
	}
	for li := range lanes {
		events = append(events, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   li,
			Args:  map[string]any{"name": fmt.Sprintf("lane %d", li)},
		})
	}
	return json.Marshal(chromeTrace{DisplayTimeUnit: "ms", TraceEvents: events})
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
