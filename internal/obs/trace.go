package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxSpans bounds a tracer's finished-span buffer. A long-lived
// daemon with tracing on must not grow without bound; spans past the cap are
// discarded and counted, and the export reports the count.
const DefaultMaxSpans = 1 << 16

// Attr is one span attribute.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: int64(v)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// SpanData is one finished span as recorded by the tracer.
type SpanData struct {
	ID     int64
	Parent int64 // 0 when the span is a root
	Name   string
	Start  time.Time
	End    time.Time
	Attrs  []Attr
	Err    string // non-empty when the span ended with an error
}

// Tracer collects finished spans for export. Construct with NewTracer;
// attach to a context with WithTracer. Safe for concurrent use.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64
	max   int

	mu       sync.Mutex
	finished []SpanData // guarded by mu
	dropped  int        // guarded by mu; spans discarded past max
}

// NewTracer returns a tracer retaining up to DefaultMaxSpans finished spans.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), max: DefaultMaxSpans}
}

// Snapshot returns the finished spans sorted by start time (ID breaks ties).
func (t *Tracer) Snapshot() []SpanData {
	t.mu.Lock()
	out := make([]SpanData, len(t.finished))
	copy(out, t.finished)
	t.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Start.Equal(out[b].Start) {
			return out[a].Start.Before(out[b].Start)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

func (t *Tracer) record(s SpanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.finished) >= t.max {
		t.dropped++
		return
	}
	t.finished = append(t.finished, s)
}

// Span is one in-flight operation. A nil *Span is valid and all its methods
// are no-ops, so instrumented code never branches on whether tracing is on.
type Span struct {
	tracer *Tracer
	id     int64
	parent int64
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs []Attr // guarded by mu
	done  bool   // guarded by mu
}

type tracerKey struct{}
type spanKey struct{}

// WithTracer returns a context carrying t; StartSpan calls under it record
// spans. A nil tracer returns ctx unchanged.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the tracer carried by ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// StartSpan opens a span named name as a child of the span ctx carries (a
// root span when there is none) and returns a context carrying the new
// span. When ctx has no tracer the returned span is nil — a no-op — and ctx
// is returned unchanged.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	var parent int64
	if p, _ := ctx.Value(spanKey{}).(*Span); p != nil {
		parent = p.id
	}
	s := &Span{
		tracer: t,
		id:     t.ids.Add(1),
		parent: parent,
		name:   name,
		start:  time.Now(),
		attrs:  attrs,
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// SetAttr appends attributes to the span. No-op on a nil or ended span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End closes the span successfully. Idempotent; no-op on nil.
func (s *Span) End() { s.end("") }

// EndErr closes the span, recording err's message as the span's error
// status when err is non-nil. Idempotent; no-op on nil.
func (s *Span) EndErr(err error) {
	if err == nil {
		s.end("")
		return
	}
	s.end(err.Error())
}

func (s *Span) end(errMsg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	attrs := s.attrs
	s.mu.Unlock()
	s.tracer.record(SpanData{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		End:    time.Now(),
		Attrs:  attrs,
		Err:    errMsg,
	})
}
