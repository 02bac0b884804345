package obs

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)

	ctx, root := StartSpan(ctx, "root", String("k", "v"))
	cctx, child := StartSpan(ctx, "child")
	_, grand := StartSpan(cctx, "grandchild")
	grand.End()
	child.EndErr(errors.New("boom"))
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Errorf("child parent = %d, want root %d", byName["child"].Parent, byName["root"].ID)
	}
	if byName["grandchild"].Parent != byName["child"].ID {
		t.Errorf("grandchild parent = %d, want child %d", byName["grandchild"].Parent, byName["child"].ID)
	}
	if byName["child"].Err != "boom" {
		t.Errorf("child err = %q, want boom", byName["child"].Err)
	}
	if byName["root"].Err != "" {
		t.Errorf("root err = %q, want empty", byName["root"].Err)
	}
	if len(byName["root"].Attrs) != 1 || byName["root"].Attrs[0].Key != "k" {
		t.Errorf("root attrs = %v, want [k=v]", byName["root"].Attrs)
	}
}

func TestNoTracerIsNoOp(t *testing.T) {
	ctx, span := StartSpan(context.Background(), "x")
	if span != nil {
		t.Fatal("StartSpan without a tracer returned a non-nil span")
	}
	// All nil-span methods must be safe.
	span.SetAttr(String("a", "b"))
	span.End()
	span.EndErr(errors.New("ignored"))
	if ctx == nil {
		t.Fatal("ctx lost")
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	_, s := StartSpan(ctx, "once")
	s.End()
	s.EndErr(errors.New("late"))
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if spans[0].Err != "" {
		t.Errorf("second End mutated the span: err = %q", spans[0].Err)
	}
}

func TestTracerDropsBeyondMax(t *testing.T) {
	tr := NewTracer()
	tr.max = 2
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 5; i++ {
		_, s := StartSpan(ctx, "s")
		s.End()
	}
	if got := len(tr.Snapshot()); got != 2 {
		t.Errorf("kept %d spans, want 2", got)
	}
}

// TestChromeTraceCountsDroppedSpans: a tracer capped at 4 that records 7
// spans exports one dropped_spans metadata event counting 3; one that drops
// nothing exports none.
func TestChromeTraceCountsDroppedSpans(t *testing.T) {
	for _, c := range []struct{ spans, dropped int }{{7, 3}, {4, 0}} {
		tr := NewTracer()
		tr.max = 4
		ctx := WithTracer(context.Background(), tr)
		for i := 0; i < c.spans; i++ {
			_, s := StartSpan(ctx, "s")
			s.End()
		}
		raw, err := tr.ChromeTrace()
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name  string         `json:"name"`
				Phase string         `json:"ph"`
				Args  map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &trace); err != nil {
			t.Fatal(err)
		}
		var counts []any
		for _, ev := range trace.TraceEvents {
			if ev.Name == "dropped_spans" && ev.Phase == "M" {
				counts = append(counts, ev.Args["count"])
			}
		}
		var want []any
		if c.dropped > 0 {
			want = []any{float64(c.dropped)}
		}
		if !reflect.DeepEqual(counts, want) {
			t.Errorf("%d spans over a cap of 4: dropped_spans counts %v, want %d", c.spans, counts, c.dropped)
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	rctx, root := StartSpan(ctx, "job")
	_, a := StartSpan(rctx, "attempt-0", Bool("retry", false))
	_, b := StartSpan(rctx, "attempt-1", Bool("retry", true))
	a.End()
	b.EndErr(errors.New("lost"))
	root.End()

	raw, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    int64          `json:"ts"`
			Dur   int64          `json:"dur"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
			CName string         `json:"cname"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", trace.DisplayTimeUnit)
	}
	var xEvents int
	tidByName := map[string]int{}
	for _, ev := range trace.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		xEvents++
		if ev.TS < 0 || ev.Dur < 1 {
			t.Errorf("event %s: ts=%d dur=%d, want ts>=0 dur>=1", ev.Name, ev.TS, ev.Dur)
		}
		tidByName[ev.Name] = ev.TID
		if ev.Name == "attempt-1" {
			if ev.Args["error"] != "lost" {
				t.Errorf("errored span args = %v, want error=lost", ev.Args)
			}
			if ev.CName == "" {
				t.Error("errored span has no cname highlight")
			}
		}
	}
	if xEvents != 3 {
		t.Fatalf("got %d X events, want 3", xEvents)
	}
	// Concurrent sibling attempts must land on different lanes so Perfetto
	// renders them side by side rather than stacked as fake nesting.
	if tidByName["attempt-0"] == tidByName["attempt-1"] {
		t.Errorf("overlapping siblings share lane %d", tidByName["attempt-0"])
	}
}

func TestObserverContext(t *testing.T) {
	o := NewObserver()
	ctx := o.Context(context.Background())
	if TracerFrom(ctx) != o.Trace {
		t.Fatal("observer did not attach its tracer")
	}
	var nilObs *Observer
	if nilObs.Context(context.Background()) == nil {
		t.Fatal("nil observer broke the context")
	}
}
