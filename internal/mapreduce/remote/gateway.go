package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dfs"
	"repro/internal/obs"
)

// The DFS gateway serves the coordinator's filesystem to workers over HTTP,
// making them genuinely shared-nothing: a worker process needs exactly one
// address — its coordinator's — to read staged input and commit
// attempt-scoped checkpoints. The surface mirrors dfs.FS one
// endpoint per operation; a missing file is 404 plus a marker header so the
// client can reconstruct dfs.ErrNotExist faithfully.

// notExistHeader marks a 404 as a genuine dfs.ErrNotExist (as opposed to a
// mis-routed URL, which must not masquerade as a missing file).
const notExistHeader = "X-Drybell-Not-Exist"

// fsGateway is the server side: dfs.FS over HTTP.
type fsGateway struct {
	fs dfs.FS
}

// mount registers the gateway's routes on mux under apiPrefix/fs.
func (g *fsGateway) mount(mux *http.ServeMux) {
	mux.HandleFunc("GET "+apiPrefix+"/fs/file", g.read)
	mux.HandleFunc("PUT "+apiPrefix+"/fs/file", g.write)
	mux.HandleFunc("POST "+apiPrefix+"/fs/rename", g.rename)
	mux.HandleFunc("POST "+apiPrefix+"/fs/remove", g.remove)
	mux.HandleFunc("GET "+apiPrefix+"/fs/list", g.list)
	mux.HandleFunc("GET "+apiPrefix+"/fs/stat", g.stat)
}

// fsError maps a filesystem error onto the wire: ErrNotExist → 404 with the
// marker header, anything else → 500 with the message.
func fsError(w http.ResponseWriter, err error) {
	if dfs.IsNotExist(err) {
		w.Header().Set(notExistHeader, "1")
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

func (g *fsGateway) read(w http.ResponseWriter, r *http.Request) {
	data, err := g.fs.ReadFile(r.URL.Query().Get("path"))
	if err != nil {
		fsError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (g *fsGateway) write(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := g.fs.WriteFile(r.URL.Query().Get("path"), data); err != nil {
		fsError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (g *fsGateway) rename(w http.ResponseWriter, r *http.Request) {
	var req renameRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := g.fs.Rename(req.Old, req.New); err != nil {
		fsError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (g *fsGateway) remove(w http.ResponseWriter, r *http.Request) {
	var req removeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := g.fs.Remove(req.Path); err != nil {
		fsError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (g *fsGateway) list(w http.ResponseWriter, r *http.Request) {
	paths, err := g.fs.List(r.URL.Query().Get("prefix"))
	if err != nil {
		fsError(w, err)
		return
	}
	writeJSON(w, paths)
}

func (g *fsGateway) stat(w http.ResponseWriter, r *http.Request) {
	size, err := g.fs.Stat(r.URL.Query().Get("path"))
	if err != nil {
		fsError(w, err)
		return
	}
	writeJSON(w, statResponse{Size: size})
}

// writeJSON renders v as the response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// FSClient is the worker side of the gateway: a dfs.FS whose every
// operation is an HTTP call to the coordinator. Tasks executed with
// mapreduce.ExecuteTask run against it unchanged — the same specs, the same
// attempt-scoped commit discipline — which is what makes the remote backend
// indistinguishable from the in-process pool above the Worker seam.
//
// The client owns the remote tier's data-plane resilience:
//
//   - Idempotent operations (read, list, stat, and write — a full-content
//     overwrite) retry transport errors on the shared backoff Policy; rename
//     and remove are not idempotent and stay single-shot, surfacing their
//     transport errors to the attempt machinery instead.
//   - Reads can be hedged: when a response is still outstanding HedgeAfter
//     after dispatch, a second identical request races it and the first
//     answer wins. Only reads hedge — they are safe to issue twice — and the
//     loser is drained in the background so the transport can reuse its
//     connection.
type FSClient struct {
	base string
	hc   *http.Client

	retry       Policy
	maxAttempts int
	hedgeAfter  time.Duration
	seeds       *retrySeeds

	stats FSClientStats
	// Registry mirrors of the atomic stats; nil when no Metrics was given.
	mRetries, mHedges, mHedgeWins *obs.Counter
}

// FSClientStats counts the client's resilience decisions. Read with
// Stats(); updated atomically on the request path.
type FSClientStats struct {
	// Retries counts transport-error retries across all idempotent ops.
	Retries atomic.Int64
	// Hedges counts hedge requests launched; HedgeWins counts the subset
	// that answered before the primary.
	Hedges    atomic.Int64
	HedgeWins atomic.Int64
}

// FSClientOptions tunes the gateway client's resilience.
type FSClientOptions struct {
	// Retry is the backoff schedule for idempotent-operation retries.
	// Zero fields inherit DefaultPolicy.
	Retry Policy
	// MaxAttempts bounds tries per idempotent operation (first attempt
	// included). Defaults to 3; 1 disables retries.
	MaxAttempts int
	// HedgeAfter launches a second read when the first is still
	// outstanding after this long. 0 disables hedging.
	HedgeAfter time.Duration
	// Seed decorrelates this client's retry jitter from its neighbours'.
	// Defaults to a hash of base.
	Seed uint64
	// Metrics, when non-nil, mirrors the client's retry/hedge counters as
	// drybell_remote_client_* registry series.
	Metrics *obs.Registry
}

// NewFSClient returns a client for the gateway served at base (e.g.
// "http://127.0.0.1:9090") with default resilience (retries on, hedging
// off). A nil hc uses http.DefaultClient.
func NewFSClient(base string, hc *http.Client) *FSClient {
	return NewFSClientOpts(base, hc, FSClientOptions{})
}

// NewFSClientOpts is NewFSClient with explicit resilience options.
func NewFSClientOpts(base string, hc *http.Client, opts FSClientOptions) *FSClient {
	if hc == nil {
		hc = http.DefaultClient
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.Seed == 0 {
		opts.Seed = SeedString(base)
	}
	c := &FSClient{
		base:        strings.TrimSuffix(base, "/"),
		hc:          hc,
		retry:       opts.Retry,
		maxAttempts: opts.MaxAttempts,
		hedgeAfter:  opts.HedgeAfter,
		seeds:       newRetrySeeds(opts.Seed),
	}
	if opts.Metrics != nil {
		c.mRetries = opts.Metrics.Counter("drybell_remote_client_retries_total",
			"Transport-error retries across idempotent gateway operations.")
		c.mHedges = opts.Metrics.Counter("drybell_remote_client_hedges_total",
			"Hedge requests launched for slow gateway reads.")
		c.mHedgeWins = opts.Metrics.Counter("drybell_remote_client_hedge_wins_total",
			"Hedged gateway reads where the duplicate answered first.")
	}
	return c
}

// Stats returns a snapshot of the client's retry and hedge counters.
func (c *FSClient) Stats() (retries, hedges, hedgeWins int64) {
	return c.stats.Retries.Load(), c.stats.Hedges.Load(), c.stats.HedgeWins.Load()
}

// fsURL builds a gateway URL with one query parameter.
func (c *FSClient) fsURL(endpoint, key, value string) string {
	return c.base + apiPrefix + "/fs/" + endpoint + "?" + key + "=" + url.QueryEscape(value)
}

// checkResp normalizes the error surface of an answered request: 404 with
// the not-exist marker becomes a dfs.PathError carrying dfs.ErrNotExist,
// any other non-2xx becomes a PathError wrapping the server's message.
func (c *FSClient) checkResp(resp *http.Response, op, path string) (*http.Response, error) {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound && resp.Header.Get(notExistHeader) != "" {
		return nil, &dfs.PathError{Op: op, Path: path, Err: dfs.ErrNotExist}
	}
	return nil, &dfs.PathError{Op: op, Path: path,
		Err: fmt.Errorf("gateway: %s: %s", resp.Status, strings.TrimSpace(string(msg)))}
}

// do runs one single-shot request (the non-idempotent path: rename, remove).
func (c *FSClient) do(req *http.Request, op, path string) (*http.Response, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, &dfs.PathError{Op: op, Path: path, Err: err}
	}
	return c.checkResp(resp, op, path)
}

// hedgedDo dispatches one request (rebuilt per launch, so each copy owns
// its body) and, when hedging is on and no answer has arrived within
// hedgeAfter, races a second identical request. The first answer wins; a
// still-outstanding loser is drained in the background. Only transport
// errors count as "no answer" — an HTTP error status is an answer.
func (c *FSClient) hedgedDo(build func() (*http.Request, error)) (*http.Response, error) {
	if c.hedgeAfter <= 0 {
		req, err := build()
		if err != nil {
			return nil, err
		}
		return c.hc.Do(req)
	}
	type answer struct {
		resp   *http.Response
		err    error
		hedged bool
	}
	ch := make(chan answer, 2)
	dispatch := func(hedged bool) {
		req, err := build()
		if err != nil {
			ch <- answer{err: err, hedged: hedged}
			return
		}
		resp, err := c.hc.Do(req)
		ch <- answer{resp: resp, err: err, hedged: hedged}
	}
	go dispatch(false)
	timer := time.NewTimer(c.hedgeAfter)
	defer timer.Stop()
	outstanding, hedged := 1, false
	var firstErr error
	for {
		select {
		case <-timer.C:
			if !hedged {
				hedged = true
				outstanding++
				c.stats.Hedges.Add(1)
				if c.mHedges != nil {
					c.mHedges.Inc()
				}
				go dispatch(true)
			}
		case a := <-ch:
			outstanding--
			if a.err == nil {
				if a.hedged {
					c.stats.HedgeWins.Add(1)
					if c.mHedgeWins != nil {
						c.mHedgeWins.Inc()
					}
				}
				if outstanding > 0 {
					go func() { // drain the loser so its connection is reusable
						if b := <-ch; b.resp != nil {
							drain(b.resp)
						}
					}()
				}
				return a.resp, nil
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if outstanding == 0 {
				return nil, firstErr
			}
		}
	}
}

// doResilient is the idempotent-operation path: hedged dispatch (reads
// only) plus transport-error retries on the shared backoff policy. Error
// statuses are answers — the gateway spoke — and are never retried; only a
// transport that failed to deliver any response is.
func (c *FSClient) doResilient(op, path string, hedge bool, build func() (*http.Request, error)) (*http.Response, error) {
	var bo *Backoff
	for attempt := 1; ; attempt++ {
		var resp *http.Response
		var err error
		if hedge {
			resp, err = c.hedgedDo(build)
		} else {
			var req *http.Request
			if req, err = build(); err == nil {
				resp, err = c.hc.Do(req)
			}
		}
		if err == nil {
			return c.checkResp(resp, op, path)
		}
		if attempt >= c.maxAttempts {
			return nil, &dfs.PathError{Op: op, Path: path, Err: err}
		}
		c.stats.Retries.Add(1)
		if c.mRetries != nil {
			c.mRetries.Inc()
		}
		if bo == nil {
			bo = c.retry.Start(c.seeds.next())
		}
		bo.Sleep(context.Background()) //drybellvet:detached — dfs.FS methods carry no context; the attempt budget bounds the loop
	}
}

// doJSON posts body as JSON and discards the response.
func (c *FSClient) doJSON(endpoint, op, path string, body any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return &dfs.PathError{Op: op, Path: path, Err: err}
	}
	req, err := http.NewRequest(http.MethodPost, c.base+apiPrefix+"/fs/"+endpoint, bytes.NewReader(payload))
	if err != nil {
		return &dfs.PathError{Op: op, Path: path, Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req, op, path)
	if err != nil {
		return err
	}
	drain(resp)
	return nil
}

// WriteFile implements dfs.FS. A write is a full-content overwrite —
// idempotent — so transport errors retry on the shared backoff policy. The
// gateway reads the whole body before it answers, so once a write has
// succeeded nothing reads data any more.
func (c *FSClient) WriteFile(path string, data []byte) error {
	resp, err := c.doResilient("write", path, false, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPut, c.fsURL("file", "path", path), bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		return req, nil
	})
	if err != nil {
		return err
	}
	drain(resp)
	return nil
}

// ReadFile implements dfs.FS. Reads retry transport errors and, when
// configured, hedge slow responses.
func (c *FSClient) ReadFile(path string) ([]byte, error) {
	resp, err := c.doResilient("read", path, true, func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, c.fsURL("file", "path", path), nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, &dfs.PathError{Op: "read", Path: path, Err: err}
	}
	return data, nil
}

// Rename implements dfs.FS. Renames are not idempotent (a retried rename
// whose first try landed answers ErrNotExist), so transport errors surface
// to the attempt machinery instead of retrying blind.
func (c *FSClient) Rename(oldPath, newPath string) error {
	return c.doJSON("rename", "rename", oldPath, renameRequest{Old: oldPath, New: newPath})
}

// Remove implements dfs.FS. Like Rename, not retried.
func (c *FSClient) Remove(path string) error {
	return c.doJSON("remove", "remove", path, removeRequest{Path: path})
}

// List implements dfs.FS. Retried and hedged like ReadFile.
func (c *FSClient) List(prefix string) ([]string, error) {
	resp, err := c.doResilient("list", prefix, true, func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, c.fsURL("list", "prefix", prefix), nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var paths []string
	if err := json.NewDecoder(resp.Body).Decode(&paths); err != nil {
		return nil, &dfs.PathError{Op: "list", Path: prefix, Err: err}
	}
	return paths, nil
}

// Stat implements dfs.FS. Retried and hedged like ReadFile.
func (c *FSClient) Stat(path string) (int64, error) {
	resp, err := c.doResilient("stat", path, true, func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, c.fsURL("stat", "path", path), nil)
	})
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st statResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, &dfs.PathError{Op: "stat", Path: path, Err: err}
	}
	return st.Size, nil
}

// drain consumes and closes a response body so the transport can reuse the
// connection.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
