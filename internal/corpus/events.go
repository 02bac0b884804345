package corpus

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/jsonenc"
)

// Event is one real-time event (§3.3): the served model sees only the
// real-time, event-level feature vector; labeling functions see the offline
// aggregates and relationship-graph scores.
type Event struct {
	// ID is unique within a stream.
	ID string `json:"id"`
	// Servable is the real-time event-level feature vector (dimension
	// EventServableDim), available at serving time with low latency.
	Servable []float64 `json:"servable"`
	// AggStats are offline aggregate statistics (non-servable; they lag the
	// event by hours).
	AggStats []float64 `json:"agg_stats"`
	// GraphScores are entity/destination relationship-graph signals
	// (non-servable; high recall, lower precision).
	GraphScores []float64 `json:"graph_scores"`
	// Gold is the planted "event of interest" label.
	Gold bool `json:"gold"`
}

// Feature dimensions for the events task.
const (
	EventServableDim = 16
	EventAggDim      = 8
	EventGraphDim    = 4
)

// EventsSpec configures the real-time events corpus.
type EventsSpec struct {
	// NumEvents is the stream length.
	NumEvents int
	// PositiveRate is the fraction of events of interest.
	PositiveRate float64
	// ServableNoise scales the noise on the real-time features; offline
	// aggregates are cleaner by a factor of ~2, which is why the offline
	// pipeline works and why its knowledge is worth transferring (§4).
	ServableNoise float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultEventsSpec returns the standard configuration.
func DefaultEventsSpec(numEvents int, seed int64) EventsSpec {
	return EventsSpec{NumEvents: numEvents, PositiveRate: 0.15, ServableNoise: 1.6, Seed: seed}
}

// GenerateEvents draws the event stream. Both feature sets are
// class-conditional Gaussians sharing the same latent intensity, so
// knowledge encoded over the aggregates transfers to models over the
// real-time features — the cross-feature serving premise.
func GenerateEvents(spec EventsSpec) ([]*Event, error) {
	if spec.NumEvents <= 0 {
		return nil, fmt.Errorf("corpus: events spec needs NumEvents > 0, got %d", spec.NumEvents)
	}
	if spec.PositiveRate <= 0 || spec.PositiveRate >= 1 {
		return nil, fmt.Errorf("corpus: events positive rate %v out of (0,1)", spec.PositiveRate)
	}
	if spec.ServableNoise <= 0 {
		spec.ServableNoise = 1.6
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	events := make([]*Event, spec.NumEvents)
	for i := range events {
		gold := rng.Float64() < spec.PositiveRate
		// Latent intensity ties the two views of the same event together.
		intensity := rng.NormFloat64() * 0.5
		if gold {
			intensity += 2.2
		}
		// Latent burst activity, independent of the event of interest: the
		// relationship graphs light up on any surge, which is why they are
		// "higher recall but generally lower-precision signals" (§3.3).
		// Bursts also leak into some real-time features, so a model trained
		// on Logical-OR labels (which fire on bursts) learns to chase them.
		burst := rng.NormFloat64()
		e := &Event{
			ID:          fmt.Sprintf("event-%08d", i),
			Servable:    make([]float64, EventServableDim),
			AggStats:    make([]float64, EventAggDim),
			GraphScores: make([]float64, EventGraphDim),
			Gold:        gold,
		}
		for f := range e.Servable {
			switch {
			case f < EventServableDim/2:
				// Signal dims: noisy views of the intensity.
				e.Servable[f] = intensity + rng.NormFloat64()*spec.ServableNoise
			case f < EventServableDim*3/4:
				// Burst dims: real-time traffic surges, uninformative about
				// the event of interest.
				e.Servable[f] = burst*1.2 + rng.NormFloat64()*0.8
			default:
				// Pure noise dims.
				e.Servable[f] = rng.NormFloat64()
			}
		}
		for f := range e.AggStats {
			e.AggStats[f] = intensity + rng.NormFloat64()*0.6
		}
		for f := range e.GraphScores {
			e.GraphScores[f] = intensity*0.5 + burst*0.9 + rng.NormFloat64()*0.5
		}
		events[i] = e
	}
	return events, nil
}

// Marshal encodes the event as a binary recordio payload (codec.go), in one
// allocation. It refuses what the labeling functions could not read: a nil
// event, vectors not of the task's dimensions, and NaN or ±Inf.
func (e *Event) Marshal() ([]byte, error) {
	if e == nil {
		return nil, errors.New("corpus: encode event: nil event")
	}
	if err := checkEventDims(e); err != nil {
		return nil, fmt.Errorf("corpus: encode event %q: %w", e.ID, err)
	}
	var idLen [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(idLen[:], uint64(len(e.ID)))
	b := append(make([]byte, 0, 2+n+len(e.ID)+8*eventDim), eventMagic, 0)
	if e.Gold {
		b[1] = 1
	}
	b = append(append(b, idLen[:n]...), e.ID...)
	for _, v := range [...][]float64{e.Servable, e.AggStats, e.GraphScores} {
		for _, f := range v {
			if !jsonenc.Finite(f) {
				return nil, fmt.Errorf("corpus: encode event %q: unsupported value: %v", e.ID, f)
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	return b, nil
}

// UnmarshalEvent decodes a recordio payload: a binary record Marshal wrote,
// or any other payload as JSON, through encoding/json. An event whose
// vectors are not of the task's dimensions is an error.
func UnmarshalEvent(data []byte) (*Event, error) {
	if len(data) == 0 || data[0] != eventMagic {
		return unmarshalEventJSON(data)
	}
	e, err := decodeEvent(data)
	if err != nil {
		return nil, fmt.Errorf("corpus: decode event: %w", err)
	}
	return e, nil
}

// unmarshalEventJSON is the reference decoder, and the path of every payload
// that is not a binary record.
func unmarshalEventJSON(data []byte) (*Event, error) {
	var e Event
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("corpus: decode event: %w", err)
	}
	if err := checkEventDims(&e); err != nil {
		return nil, fmt.Errorf("corpus: decode event: %w", err)
	}
	return &e, nil
}

// EventGoldLabels extracts ±1 gold labels.
func EventGoldLabels(events []*Event) []int {
	out := make([]int, len(events))
	for i, e := range events {
		if e.Gold {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}
