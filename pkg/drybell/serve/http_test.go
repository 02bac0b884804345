package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/israce"
	"repro/internal/nlp"
	"repro/internal/serving"
	"repro/pkg/drybell/lf"
	"repro/pkg/drybell/serve"
)

func httpFixture(t *testing.T) (*serve.Server[vec], *httptest.Server) {
	t.Helper()
	s, _ := newVecServer(t, serve.Config[vec]{BatchWait: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("non-JSON response %q: %v", data, err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestHTTPHealthz(t *testing.T) {
	_, ts := httpFixture(t)
	code, body := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || body["status"] != "ok" || body["version"] != float64(1) {
		t.Errorf("healthz = %d %v", code, body)
	}
}

func TestHTTPPredict(t *testing.T) {
	_, ts := httpFixture(t)
	code, body := postJSON(t, ts.URL+"/v1/predict", `{"indices":[1],"values":[1]}`)
	if code != http.StatusOK {
		t.Fatalf("predict = %d %v", code, body)
	}
	if body["positive"] != true || body["version"] != float64(1) {
		t.Errorf("predict body = %v", body)
	}
	if body["score"].(float64) < 0.9 {
		t.Errorf("score = %v", body["score"])
	}
	if code, body := postJSON(t, ts.URL+"/v1/predict", `{nope`); code != http.StatusBadRequest {
		t.Errorf("malformed body = %d %v", code, body)
	}
}

func TestHTTPPromoteFlow(t *testing.T) {
	_, ts := httpFixture(t)
	code, body := postJSON(t, ts.URL+"/v1/promote", `{"version":2}`)
	if code != http.StatusOK || body["version"] != float64(2) {
		t.Fatalf("promote = %d %v", code, body)
	}
	if _, body := postJSON(t, ts.URL+"/v1/predict", `{"indices":[1],"values":[1]}`); body["positive"] != false {
		t.Errorf("post-promotion predict = %v", body)
	}
	if code, body := postJSON(t, ts.URL+"/v1/promote", `{"version":99}`); code != http.StatusConflict {
		t.Errorf("promote unknown version = %d %v", code, body)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/reload", `{}`); code != http.StatusOK {
		t.Errorf("reload = %d", code)
	}
}

func TestHTTPLabelNotConfigured(t *testing.T) {
	_, ts := httpFixture(t)
	code, body := postJSON(t, ts.URL+"/v1/label", `{"indices":[],"values":[]}`)
	if code != http.StatusNotImplemented {
		t.Errorf("label without runners = %d %v", code, body)
	}
}

func TestHTTPMetrics(t *testing.T) {
	_, ts := httpFixture(t)
	for i := 0; i < 5; i++ {
		postJSON(t, ts.URL+"/v1/predict", `{"indices":[1],"values":[1]}`)
	}
	code, body := getJSON(t, ts.URL+"/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	pred, ok := body["predict"].(map[string]any)
	if !ok || pred["requests"] != float64(5) {
		t.Errorf("predict stats = %v", body["predict"])
	}
	if body["model"] != "m" || body["version"] != float64(1) {
		t.Errorf("metrics identity = %v %v", body["model"], body["version"])
	}
	if _, ok := body["batches"].(map[string]any); !ok {
		t.Errorf("batches stats missing: %v", body)
	}
}

func TestHTTPDrainReturns503(t *testing.T) {
	s, ts := httpFixture(t)
	s.Close()
	code, body := postJSON(t, ts.URL+"/v1/predict", `{"indices":[1],"values":[1]}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("draining predict = %d %v", code, body)
	}
}

// tryPost returns the status and the raw bytes of an answer.
func tryPost(url string, body []byte) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// post is tryPost for the test's own goroutine.
func post(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	code, data, err := tryPost(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, data
}

// batchFixture is a document server with the topic labeling functions and a
// label model behind a real listener, and a few marshalled documents.
func batchFixture(t *testing.T) (url string, bodies [][]byte) {
	t.Helper()
	runners := apps.TopicLFs(nil, 0, 1)
	s := newDocServer(t, runners, uniformModel(len(runners)))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	docs, err := corpus.GenerateTopic(corpus.DefaultTopicSpec(12, 4))
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, celebrityDoc())
	if bodies, err = corpus.MarshalDocuments(docs); err != nil {
		t.Fatal(err)
	}
	return ts.URL, bodies
}

// TestHTTPLabelBatch: a batch answers, in order, exactly what /v1/label
// answers for each of its records, however the array is spaced.
func TestHTTPLabelBatch(t *testing.T) {
	url, bodies := batchFixture(t)
	var singles [][]byte
	for _, b := range bodies {
		code, answer := post(t, url+"/v1/label", b)
		if code != http.StatusOK {
			t.Fatalf("label = %d %s", code, answer)
		}
		singles = append(singles, bytes.TrimSuffix(answer, []byte("\n")))
	}
	want := append(append([]byte("["), bytes.Join(singles, []byte(","))...), "]\n"...)
	if !bytes.Contains(want, []byte(`"posterior":`)) || !bytes.Contains(want, []byte(`"lf":"ner_known_celebrity"`)) {
		t.Fatalf("per-record answers look wrong: %s", want)
	}
	for name, body := range map[string][]byte{
		"compact": append(append([]byte("["), bytes.Join(bodies, []byte(","))...), ']'),
		"spaced":  append(append([]byte(" \n[\t"), bytes.Join(bodies, []byte(" ,\r\n  "))...), " ]\n "...),
	} {
		code, answer := post(t, url+"/v1/label/batch", body)
		if code != http.StatusOK {
			t.Fatalf("%s batch = %d %s", name, code, answer)
		}
		if !bytes.Equal(answer, want) {
			t.Errorf("%s batch:\n got %s\nwant %s", name, answer, want)
		}
	}
}

// TestHTTPAnswersUnderConcurrency: response buffers are pooled; answers
// written on many goroutines at once are byte for byte the ones written alone.
func TestHTTPAnswersUnderConcurrency(t *testing.T) {
	url, bodies := batchFixture(t)
	batch := append(append([]byte("["), bytes.Join(bodies, []byte(","))...), ']')
	type call struct {
		path string
		body []byte
		want []byte
	}
	var calls []call
	for _, b := range bodies {
		calls = append(calls, call{path: "/v1/predict", body: b}, call{path: "/v1/label", body: b})
	}
	calls = append(calls, call{path: "/v1/label/batch", body: batch})
	for i := range calls {
		code, answer := post(t, url+calls[i].path, calls[i].body)
		if code != http.StatusOK {
			t.Fatalf("%s = %d %s", calls[i].path, code, answer)
		}
		calls[i].want = answer
	}
	// A predict answer carries the size of the micro-batch it shared.
	batchSize := regexp.MustCompile(`"batch_size":\d+`)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range calls {
				c := calls[(k+g*3)%len(calls)]
				code, answer, err := tryPost(url+c.path, c.body)
				if err != nil || code != http.StatusOK || !bytes.Equal(batchSize.ReplaceAll(answer, nil), batchSize.ReplaceAll(c.want, nil)) {
					t.Errorf("%s under concurrency = %d %s (%v), want %s", c.path, code, answer, err, c.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestHTTPLabelBatchRefusals(t *testing.T) {
	url, bodies := batchFixture(t)
	array := func(elems ...[]byte) []byte {
		return append(append([]byte("["), bytes.Join(elems, []byte(","))...), ']')
	}
	many := func(n int) []byte {
		elems := make([][]byte, n)
		for i := range elems {
			elems[i] = bodies[i%len(bodies)]
		}
		return array(elems...)
	}
	// An element nested deeper than the one-pass scanner follows goes to the
	// json.Decoder, and from there to the record decoder like any other.
	deep := []byte(`{"id":"deep","x":` + strings.Repeat("[", 40) + strings.Repeat("]", 40) + `}`)

	if code, answer := post(t, url+"/v1/label/batch", many(1024)); code != http.StatusOK {
		t.Errorf("a batch at the limit = %d %.200s", code, answer)
	}
	if code, answer := post(t, url+"/v1/label/batch", array(bodies[0], deep)); code != http.StatusOK || bytes.Count(answer, []byte(`"votes":`)) != 2 {
		t.Errorf("a batch the scanner declines = %d %.200s", code, answer)
	}
	for name, c := range map[string]struct {
		body []byte
		want string // the error must contain it
	}{
		"empty array":           {[]byte(` [ ] `), "serve: empty batch"},
		"null":                  {[]byte(`null`), "serve: empty batch"},
		"one record too many":   {many(1025), "exceeds limit 1024"},
		"too many, then broken": {append(bytes.TrimSuffix(many(1025), []byte("]")), ",{]"...), "exceeds limit 1024"},
		"bad element":           {array(bodies[0], bodies[1], bodies[2], []byte(`{"id":7}`), bodies[3]), "record 3: "},
		"not an array":          {bodies[0], "decode batch: json: cannot unmarshal object"},
		"syntax":                {[]byte(`[{"id":"a"},]`), "decode batch: invalid character ']'"},
		"truncated":             {bytes.TrimSuffix(array(bodies[0]), []byte("]")), "decode batch: unexpected EOF"},
		"no body":               {nil, "decode batch: EOF"},
		"bytes after the array": {append(array(bodies[0]), " }}}"...), "decode batch: invalid character '}' after top-level value"},
		"a second array":        {append(array(bodies[0]), "[]"...), "decode batch: invalid character '[' after top-level value"},
		"over the body limit":   {append(array(bodies[0]), bytes.Repeat([]byte(" "), 1<<20)...), "decode batch: http: request body too large"},
	} {
		code, out := postJSON(t, url+"/v1/label/batch", string(c.body))
		msg, _ := out["error"].(string)
		if code != http.StatusBadRequest || !strings.Contains(msg, c.want) {
			t.Errorf("%s = %d %q, want 400 with %q", name, code, msg, c.want)
		}
	}
	// The same trailing bytes are refused after a single record, too.
	if code, out := postJSON(t, url+"/v1/label", string(bodies[0])+" }}}"); code != http.StatusBadRequest {
		t.Errorf("/v1/label with bytes after the record = %d %v", code, out)
	}
}

// TestHTTPRefusesBadRecords: request records are JSON only. A body that is a
// binary staging record — truncated, garbage or whole, which the record
// decoder refuses or reads — is a 400 on /v1/label and /v1/predict before the
// decoder sees it, and a 400 as an element of a /v1/label/batch array, which
// must be JSON. A JSON object the decoder refuses is a 400 carrying the
// decoder's error.
func TestHTTPRefusesBadRecords(t *testing.T) {
	url, bodies := batchFixture(t)
	rec, err := celebrityDoc().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const notJSON = "serve: a request record is a JSON object"
	bad := [][]byte{rec[:1], rec[:5], rec[:len(rec)-1], append(bytes.Clone(rec), 'x'),
		append([]byte{rec[0]}, bytes.Repeat([]byte{0xff}, 40)...), append([]byte{rec[0], 7}, rec[2:]...)}
	for _, body := range bad {
		_, derr := corpus.UnmarshalDocument(body)
		if derr == nil || !strings.HasPrefix(derr.Error(), "corpus: decode document: ") {
			t.Fatalf("%x: decoder error %v", body, derr)
		}
		for _, path := range []string{"/v1/label", "/v1/predict"} {
			code, out := postJSON(t, url+path, string(body))
			if msg, _ := out["error"].(string); code != http.StatusBadRequest || msg != notJSON {
				t.Errorf("%s %x = %d %q, want 400 %q", path, body, code, msg, notJSON)
			}
		}
		batch := append(append(append(append([]byte("["), bodies[0]...), ','), body...), ']')
		code, out := postJSON(t, url+"/v1/label/batch", string(batch))
		if msg, _ := out["error"].(string); code != http.StatusBadRequest || !strings.HasPrefix(msg, "decode batch: ") {
			t.Errorf("batch with %x = %d %q, want 400 decode batch", body, code, msg)
		}
	}
	if _, err := corpus.UnmarshalDocument(rec); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/label", "/v1/predict"} {
		if code, out := postJSON(t, url+path, string(rec)); code != http.StatusBadRequest || out["error"] != notJSON {
			t.Errorf("%s with a whole binary record = %d %v, want 400 %q", path, code, out, notJSON)
		}
	}
	// Past the gate, the decoder's own refusal is the answer.
	body := `{"id":"d","title":5}`
	_, derr := corpus.UnmarshalDocument([]byte(body))
	if derr == nil {
		t.Fatal("the decoder took a numeric title")
	}
	if code, out := postJSON(t, url+"/v1/label", " \n"+body); code != http.StatusBadRequest || out["error"] != derr.Error() {
		t.Errorf("/v1/label %s = %d %v, want 400 %q", body, code, out, derr)
	}
	batch := "[" + string(bodies[0]) + ", " + body + "]"
	if code, out := postJSON(t, url+"/v1/label/batch", batch); code != http.StatusBadRequest || out["error"] != "record 1: "+derr.Error() {
		t.Errorf("batch with %s = %d %v, want 400 record 1: %q", body, code, out, derr)
	}
}

func TestHTTPLabelBatchNotConfigured(t *testing.T) {
	s, reg := newVecServer(t, serve.Config[vec]{})
	undecoded, err := serve.New(serve.Config[vec]{Registry: reg, Model: "m", Featurize: identityFeaturizer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(undecoded.Close)
	for name, h := range map[string]http.Handler{"no labeling functions": s.Handler(), "no decoder": undecoded.Handler()} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/label/batch", strings.NewReader(`[{"indices":[1],"values":[1]}]`)))
		if rec.Code != http.StatusNotImplemented {
			t.Errorf("%s: batch = %d %s, want 501", name, rec.Code, rec.Body)
		}
	}
}

// TestCloseStopsTheModelServerItLaunched: the NLP model server a Server's
// labeler launched stops with the Server, once, while an annotator the caller
// supplied is the caller's to stop.
func TestCloseStopsTheModelServerItLaunched(t *testing.T) {
	var launched []*nlp.Server
	counting := func() []apps.DocLF {
		runners := apps.TopicLFs(nil, 0, 1)
		for _, f := range runners {
			if n, ok := f.(*lf.NLPFunc[*corpus.Document]); ok {
				build := n.NewServer
				n.NewServer = func() *nlp.Server {
					launched = append(launched, build())
					return launched[len(launched)-1]
				}
			}
		}
		return runners
	}
	running := func() (n int) {
		for _, srv := range launched {
			if srv.Launched() {
				n++
			}
		}
		return n
	}

	s := newDocServer(t, counting(), nil)
	if _, err := s.Label(context.Background(), celebrityDoc()); err != nil {
		t.Fatal(err)
	}
	if len(launched) != 1 || running() != 1 {
		t.Fatalf("%d model servers launched, %d running; want one of each", len(launched), running())
	}
	s.Close()
	if running() != 0 {
		t.Errorf("%d of %d model servers outlive Close", running(), len(launched))
	}
	s.Close()
	if len(launched) != 1 || running() != 0 {
		t.Errorf("a second Close: %d launched, %d running", len(launched), running())
	}

	theirs := nlp.NewServer(0, 1)
	if err := theirs.Launch(); err != nil {
		t.Fatal(err)
	}
	reg, _ := serving.OpenFSRegistry(dfs.NewMem(), "serving")
	if _, err := reg.Stage(docArtifact()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote("topic-classifier", 1); err != nil {
		t.Fatal(err)
	}
	injected, err := serve.New(serve.Config[*corpus.Document]{
		Registry: reg, Model: "topic-classifier", Featurize: serve.DocumentFeaturizer,
		LFs: counting(), Annotator: theirs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := injected.Label(context.Background(), celebrityDoc()); err != nil {
		t.Fatal(err)
	}
	injected.Close()
	if len(launched) != 1 {
		t.Errorf("a server given an annotator launched %d more", len(launched)-1)
	}
	if !theirs.Launched() {
		t.Error("Close stopped an annotator that belongs to the caller")
	}
}

// inProcess is a client that calls a handler directly and reuses its request
// and response, so that what it measures is the server.
type inProcess struct {
	h    http.Handler
	req  *http.Request
	body bytes.Reader
	w    reusedWriter
}

type reusedWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *reusedWriter) Header() http.Header         { return w.hdr }
func (w *reusedWriter) WriteHeader(c int)           { w.code = c }
func (w *reusedWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

func newInProcess(h http.Handler, path string) *inProcess {
	c := &inProcess{h: h, w: reusedWriter{hdr: http.Header{}}}
	c.req = httptest.NewRequest(http.MethodPost, path, nil)
	c.req.Body = io.NopCloser(&c.body)
	return c
}

func (c *inProcess) post(payload []byte) (int, []byte) {
	c.body.Reset(payload)
	c.req.ContentLength = int64(len(payload))
	clear(c.w.hdr)
	c.w.code = 0
	c.w.body.Reset()
	c.h.ServeHTTP(&c.w, c.req)
	return c.w.code, c.w.body.Bytes()
}

// TestPredictRoundTripAllocations is the ceiling on what one /v1/predict costs
// in allocations, body to answer. It measures 19 — the body and the decoded
// document (7), a micro-batch of one and its timer, the feature vector (3),
// the header value — where the featurizer's strings and encoding/json's
// reflection made it 75.
func TestPredictRoundTripAllocations(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	s := newDocServer(t, nil, nil)
	c := newInProcess(s.Handler(), "/v1/predict")
	bodies, err := corpus.MarshalDocuments([]*corpus.Document{celebrityDoc()})
	if err != nil {
		t.Fatal(err)
	}
	payload := bodies[0]
	if code, answer := c.post(payload); code != http.StatusOK || !bytes.Contains(answer, []byte(`"score":`)) {
		t.Fatalf("predict = %d %s", code, answer)
	}
	const ceiling = 22
	if got := testing.AllocsPerRun(200, func() { c.post(payload) }); got > ceiling {
		t.Errorf("%v allocations per /v1/predict round trip, ceiling %d", got, ceiling)
	}
}

func BenchmarkHandleLabelBatch(b *testing.B) {
	runners := apps.TopicLFs(nil, 0, 1)
	s := newDocServer(b, runners, uniformModel(len(runners)))
	docs, err := corpus.GenerateTopic(corpus.DefaultTopicSpec(32, 4))
	if err != nil {
		b.Fatal(err)
	}
	bodies, err := corpus.MarshalDocuments(docs)
	if err != nil {
		b.Fatal(err)
	}
	payload := append(append([]byte("["), bytes.Join(bodies, []byte(","))...), ']')
	c := newInProcess(s.Handler(), "/v1/label/batch")
	if code, answer := c.post(payload); code != http.StatusOK {
		b.Fatalf("batch = %d %.200s", code, answer)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code, _ := c.post(payload); code != http.StatusOK {
			b.Fatal(code)
		}
	}
}
