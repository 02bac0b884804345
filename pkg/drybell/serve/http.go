package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// maxBodyBytes bounds request bodies; records larger than this are not
// documents, they are abuse.
const maxBodyBytes = 1 << 20

// DeadlineHeader carries a client's per-request deadline as a Go duration
// ("250ms", "1s"). The server honors the tighter of this and
// Config.DefaultDeadline; a request that exhausts its deadline while queued
// is skipped rather than scored for nobody.
const DeadlineHeader = "X-Request-Deadline"

// Handler returns the HTTP/JSON API:
//
//	GET  /healthz         liveness plus the live model version
//	POST /v1/predict      body: one record (e.g. a corpus.Document JSON)
//	POST /v1/label        body: one record; runs the labeling functions online
//	POST /v1/label/batch  body: JSON array of records; column-at-a-time labeling
//	GET  /v1/metrics      counters, latency quantiles, batch histogram, cache
//	POST /v1/promote      body: {"version": N}; hot-swaps a staged version live
//	POST /v1/reload       re-reads the registry (promotions from other processes)
func (s *Server[T]) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/label", s.handleLabel)
	mux.HandleFunc("POST /v1/label/batch", s.handleLabelBatch)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/promote", s.handlePromote)
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	return mux
}

func (s *Server[T]) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"model":   s.handle.Current().Artifact().Name,
		"version": s.Version(),
	})
}

func (s *Server[T]) decodeRecord(w http.ResponseWriter, r *http.Request) (T, bool) {
	var zero T
	if s.cfg.Decode == nil {
		writeError(w, http.StatusNotImplemented, errors.New("serve: no record decoder configured"))
		return zero, false
	}
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return zero, false
	}
	rec, err := s.decode(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return zero, false
	}
	return rec, true
}

// decode is Config.Decode behind the HTTP boundary's one wire format, JSON:
// a record that does not open an object is refused before Decode sees it.
func (s *Server[T]) decode(rec []byte) (T, error) {
	if trimmed := bytes.TrimLeft(rec, " \t\r\n"); len(trimmed) == 0 || trimmed[0] != '{' {
		var zero T
		return zero, errors.New("serve: a request record is a JSON object")
	}
	return s.cfg.Decode(rec)
}

// requestContext derives a handler's context: the client's DeadlineHeader
// and the server's DefaultDeadline each cap it, tightest wins. Reports
// false (with a 400 already written) on an unparseable header.
func (s *Server[T]) requestContext(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, bool) {
	d := s.cfg.DefaultDeadline
	if h := r.Header.Get(DeadlineHeader); h != "" {
		cd, err := time.ParseDuration(h)
		if err != nil || cd <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: invalid %s %q (want a positive Go duration)", DeadlineHeader, h))
			return nil, nil, false
		}
		if d <= 0 || cd < d {
			d = cd
		}
	}
	if d <= 0 {
		return r.Context(), func() {}, true
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, true
}

// writeRequestError renders a request-path failure, translating an
// admission shed into 429 with a Retry-After hint.
func writeRequestError(w http.ResponseWriter, err error) {
	var ae *AdmissionError
	if errors.As(err, &ae) {
		secs := int(ae.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	writeError(w, statusFor(err), err)
}

func (s *Server[T]) handlePredict(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.decodeRecord(w, r)
	if !ok {
		return
	}
	ctx, cancel, ok := s.requestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	res, err := s.Predict(ctx, rec)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	writeResult(w, res, appendPredictResult)
}

func (s *Server[T]) handleLabel(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.decodeRecord(w, r)
	if !ok {
		return
	}
	ctx, cancel, ok := s.requestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	res, err := s.Label(ctx, rec)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	writeResult(w, res, appendLabelResult)
}

// maxLabelBatch bounds one /v1/label/batch request; bigger corpora belong
// on the batch pipeline.
const maxLabelBatch = 1024

// handleLabelBatch reads the body once and decodes its elements in place:
// Config.Decode is handed sub-slices of the one request buffer, which is why
// that buffer is never pooled. The body must be a JSON array and nothing
// else: non-whitespace after the closing bracket is a 400, as the same bytes
// after a /v1/label record are. A batch over maxLabelBatch is refused where
// its first record too many starts, without reading the rest, so the refusal
// names the limit and not the batch's size.
func (s *Server[T]) handleLabelBatch(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Decode == nil {
		writeError(w, http.StatusNotImplemented, errors.New("serve: no record decoder configured"))
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode batch: %w", err))
		return
	}
	raw, over, ok := splitBatch(body, maxLabelBatch)
	if !ok {
		if raw, err = decodeBatch(body); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode batch: %w", err))
			return
		}
		over = len(raw) > maxLabelBatch
	}
	if over {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: batch exceeds limit %d", maxLabelBatch))
		return
	}
	if len(raw) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("serve: empty batch"))
		return
	}
	recs := make([]T, len(raw))
	for i, elem := range raw {
		rec, err := s.decode(elem)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("record %d: %w", i, err))
			return
		}
		recs[i] = rec
	}
	ctx, cancel, ok := s.requestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	res, err := s.LabelBatch(ctx, recs)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	writeResult(w, res, appendLabelResults)
}

func (s *Server[T]) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server[T]) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Version int `json:"version"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode promote request: %w", err))
		return
	}
	if err := s.Promote(req.Version); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"model": s.cfg.Model, "version": s.Version()})
}

func (s *Server[T]) handleReload(w http.ResponseWriter, r *http.Request) {
	if err := s.Reload(); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"model": s.cfg.Model, "version": s.Version()})
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNoLabeler):
		return http.StatusNotImplemented
	case errors.Is(err, context.Canceled):
		// The client went away; 499 (nginx's "client closed request")
		// keeps these out of the 5xx rate.
		return 499
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON answers with v as encoding/json encodes it: the reference the
// wire encoders of writeResult are held to, and the path for every value
// they do not cover or decline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
