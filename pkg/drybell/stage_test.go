package drybell

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
)

// eventRecords encodes each event as Event.Marshal stages it.
func eventRecords(t *testing.T, events []*corpus.Event) [][]byte {
	t.Helper()
	recs := make([][]byte, len(events))
	for i, e := range events {
		var err error
		if recs[i], err = e.Marshal(); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// intPipeline stages ints as one-line decimal records; encode, when set, runs
// before each example is encoded.
func intPipeline(t *testing.T, parallelism int, encode func(x int) error) *Pipeline[int] {
	t.Helper()
	p, err := New[int](
		WithShards(4),
		WithParallelism(parallelism),
		WithCodec(func(x int) ([]byte, error) {
			if encode != nil {
				if err := encode(x); err != nil {
					return nil, err
				}
			}
			return []byte(fmt.Sprint(x)), nil
		}, func(b []byte) (int, error) { return 0, nil }),
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// counting yields 0..n-1 and then, when fail is set, fail.
func counting(n int, fail error) iter.Seq2[int, error] {
	return func(yield func(int, error) bool) {
		for i := 0; i < n; i++ {
			if !yield(i, nil) {
				return
			}
		}
		if fail != nil {
			yield(0, fail)
		}
	}
}

// staged lists every file under the pipeline's input base.
func staged[T any](t *testing.T, p *Pipeline[T]) []string {
	t.Helper()
	paths, err := p.FS().List(p.InputPath())
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestStagingIdenticalAcrossParallelism: the staged shards do not depend on
// how many goroutines encoded them, for a corpus that ends mid-chunk.
func TestStagingIdenticalAcrossParallelism(t *testing.T) {
	events, err := corpus.GenerateEvents(corpus.DefaultEventsSpec(2*encodeChunk+77, 5))
	if err != nil {
		t.Fatal(err)
	}
	config := func(parallelism int) *Pipeline[*corpus.Event] {
		return eventPipeline(t, WithShards(4), WithParallelism(parallelism))
	}
	// The reference is staging without the encoder: records made one by one.
	recs := eventRecords(t, events)
	ref := config(1)
	if _, err := ref.StageRecords(context.Background(), SliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{1, 2, 8} {
		p := config(parallelism)
		n, err := p.Stage(context.Background(), SliceSource(events))
		if err != nil || n != len(events) {
			t.Fatalf("parallelism %d: staged %d, %v", parallelism, n, err)
		}
		compareShards(t, p.FS(), ref.FS(), p.InputPath(), fmt.Sprintf("parallelism %d: input", parallelism))
	}
}

// TestStagingReportsFirstFailureInSourceOrder: whichever goroutine fails
// first, the error is the one a serial pass would have met first, the
// consumer has seen exactly the records before it, and nothing commits.
func TestStagingReportsFirstFailureInSourceOrder(t *testing.T) {
	const k = encodeChunk + 188
	boom := errors.New("upstream exploded")
	refuse := func(at ...int) func(int) error {
		return func(x int) error {
			for _, a := range at {
				if x == a {
					return fmt.Errorf("cannot encode %d", x)
				}
			}
			return nil
		}
	}
	for _, c := range []struct {
		name    string
		encode  func(int) error
		src     iter.Seq2[int, error]
		records int
		want    string
	}{
		{"encode error", refuse(k), counting(4*encodeChunk, nil), k, fmt.Sprintf("encode example %d: cannot encode %d", k, k)},
		{"earliest of several encode errors", refuse(3*encodeChunk+1, k, 2*encodeChunk), counting(4*encodeChunk, nil), k, fmt.Sprintf("encode example %d:", k)},
		{"source error", nil, counting(k, boom), k, "example source: upstream exploded"},
		{"encode error before the source error", refuse(k - 300), counting(k, boom), k - 300, fmt.Sprintf("encode example %d:", k-300)},
		{"source error before any example", nil, counting(0, boom), 0, "example source: upstream exploded"},
	} {
		for _, parallelism := range []int{1, 3} {
			p := intPipeline(t, parallelism, c.encode)
			seen := 0
			var failure error
			for rec, err := range p.encoded(c.src) {
				if err != nil {
					failure = err
					continue // a yield after the error would panic the range
				}
				if string(rec) != fmt.Sprint(seen) {
					t.Fatalf("%s/p%d: record %d is %q", c.name, parallelism, seen, rec)
				}
				seen++
			}
			if seen != c.records || failure == nil || !strings.Contains(failure.Error(), c.want) {
				t.Errorf("%s/p%d: %d records then %v; want %d then %q", c.name, parallelism, seen, failure, c.records, c.want)
			}
			if _, err := p.Stage(context.Background(), c.src); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s/p%d: Stage error %v, want %q", c.name, parallelism, err, c.want)
			}
			if files := staged(t, p); len(files) != 0 {
				t.Errorf("%s/p%d: failed staging committed %d files", c.name, parallelism, len(files))
			}
		}
	}
	if _, err := intPipeline(t, 2, nil).Stage(context.Background(), counting(k, boom)); !errors.Is(err, boom) {
		t.Errorf("source error lost its cause: %v", err)
	}
}

// TestStagingLeavesNoEncoderBehind: when the consumer walks away, or the
// context is canceled, every encoder has returned by the time staging does,
// without first working through its chunk.
func TestStagingLeavesNoEncoderBehind(t *testing.T) {
	const chunks = 5
	var active, calls atomic.Int64
	release := make(chan struct{})
	stall := func(x int) error {
		active.Add(1)
		defer active.Add(-1)
		calls.Add(1)
		if x >= encodeChunk {
			<-release // every chunk but the first waits for the consumer to leave
		}
		return nil
	}
	seen := 0
	for _, err := range intPipeline(t, 8, stall).encoded(counting(chunks*encodeChunk, nil)) {
		if err != nil {
			t.Fatal(err)
		}
		if seen++; seen == 10 {
			close(release)
			break
		}
	}
	if n := active.Load(); n != 0 {
		t.Errorf("%d encoders still running after the consumer stopped", n)
	}
	if n := calls.Load(); n > encodeChunk+chunks-1 {
		t.Errorf("encoders made %d calls after the consumer stopped at record 10; want at most one each beyond the first chunk", n)
	}

	active.Store(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := intPipeline(t, 2, func(x int) error {
		active.Add(1)
		defer active.Add(-1)
		if x == encodeChunk+50 {
			cancel()
		}
		return nil
	})
	if _, err := p.Stage(ctx, counting(chunks*encodeChunk, nil)); !errors.Is(err, context.Canceled) {
		t.Errorf("Stage under a canceled context: %v", err)
	}
	if n := active.Load(); n != 0 {
		t.Errorf("%d encoders still running after cancellation", n)
	}
	if files := staged(t, p); len(files) != 0 {
		t.Errorf("canceled staging committed %d files", len(files))
	}
}

// TestMalformedStagedEventIsAnError: StageRecords takes records as given, so
// a truncated event can reach a map task; the event functions index its
// vectors unchecked and nothing in the runtime recovers a panic. It has to
// fail to decode, whether it is a binary record or JSON.
func TestMalformedStagedEventIsAnError(t *testing.T) {
	events, err := corpus.GenerateEvents(corpus.DefaultEventsSpec(40, 9))
	if err != nil {
		t.Fatal(err)
	}
	good := eventRecords(t, events)
	// The record of an event with ID "x" that ends after three floats: its
	// magic byte, gold byte 0, ID length 1, the ID, 24 bytes of floats.
	truncated := append([]byte{good[0][0], 0, 1, 'x'}, make([]byte, 3*8)...)
	for _, c := range []struct{ bad, want string }{
		{`{"id":"x"}`, "servable has 0 values, want 16"},
		{string(truncated), "corpus: decode event: record is 28 bytes, want 228"},
	} {
		p := eventPipeline(t, WithShards(2), WithRetries(0))
		recs := append(append([][]byte{}, good...), []byte(c.bad))
		if _, err := p.StageRecords(context.Background(), SliceSource(recs)); err != nil {
			t.Fatal(err)
		}
		_, _, err := p.ExecuteLFs(context.Background(), apps.EventLFs(20, 1))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("executing over %q: error %v, want %q", c.bad, err, c.want)
		}
	}
}

// TestStagingRefusesEventsTheLFsCannotRead: an event the labeling functions
// could not read fails staging, before a corpus commits, instead of failing
// every map-task attempt after it.
func TestStagingRefusesEventsTheLFsCannotRead(t *testing.T) {
	events, err := corpus.GenerateEvents(corpus.DefaultEventsSpec(40, 9))
	if err != nil {
		t.Fatal(err)
	}
	short, nan := *events[7], *events[7]
	short.AggStats = short.AggStats[:3]
	nan.Servable = append([]float64{math.NaN()}, nan.Servable[1:]...)
	for _, c := range []struct {
		bad  *corpus.Event
		want string
	}{
		{nil, "encode example 7: corpus: encode event: nil event"},
		{&short, `encode example 7: corpus: encode event "event-00000007": agg_stats has 3 values, want 8`},
		{&nan, `encode example 7: corpus: encode event "event-00000007": unsupported value: NaN`},
	} {
		p := eventPipeline(t, WithShards(2))
		src := append(append(append([]*corpus.Event{}, events[:7]...), c.bad), events[8:]...)
		if _, err := p.Stage(context.Background(), SliceSource(src)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("staging error %v, want %q", err, c.want)
		}
		if files := staged(t, p); len(files) != 0 {
			t.Errorf("staging that failed on %q committed %d files", c.want, len(files))
		}
	}
}
