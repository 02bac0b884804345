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
// The client owns the remote tier's data-plane resilience: idempotent
// operations (read, list, stat, and write — a full-content overwrite) retry
// transport errors on the shared backoff Policy; rename and remove are not
// idempotent and stay single-shot, surfacing their transport errors to the
// attempt machinery instead.
type FSClient struct {
	base string
	hc   *http.Client

	retry Policy
	seeds *retrySeeds

	// mRetries counts transport-error retries; nil when no Metrics was given.
	mRetries *obs.Counter
}

// gatewayMaxAttempts bounds tries per idempotent gateway operation, the
// first attempt included.
const gatewayMaxAttempts = 3

// FSClientOptions tunes the gateway client's resilience.
type FSClientOptions struct {
	// Retry is the backoff schedule for idempotent-operation retries.
	// Zero fields inherit DefaultPolicy.
	Retry Policy
	// Seed decorrelates this client's retry jitter from its neighbours'.
	// Defaults to a hash of base.
	Seed uint64
	// Metrics, when non-nil, mirrors the client's retry counter as the
	// drybell_remote_client_retries_total registry series.
	Metrics *obs.Registry
}

// NewFSClientOpts returns a client for the gateway served at base (e.g.
// "http://127.0.0.1:9090"). Zero options keep retries on with
// DefaultPolicy. A nil hc uses http.DefaultClient.
func NewFSClientOpts(base string, hc *http.Client, opts FSClientOptions) *FSClient {
	if hc == nil {
		hc = http.DefaultClient
	}
	if opts.Seed == 0 {
		opts.Seed = SeedString(base)
	}
	c := &FSClient{
		base:  strings.TrimSuffix(base, "/"),
		hc:    hc,
		retry: opts.Retry,
		seeds: newRetrySeeds(opts.Seed),
	}
	if opts.Metrics != nil {
		c.mRetries = opts.Metrics.Counter("drybell_remote_client_retries_total",
			"Transport-error retries across idempotent gateway operations.")
	}
	return c
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

// doResilient is the idempotent-operation path: transport-error retries on
// the shared backoff policy, each try a freshly built request so it owns its
// body. Error statuses are answers — the gateway spoke — and are never
// retried; only a transport that failed to deliver any response is.
func (c *FSClient) doResilient(op, path string, build func() (*http.Request, error)) (*http.Response, error) {
	var bo *Backoff
	for attempt := 1; ; attempt++ {
		req, err := build()
		if err != nil {
			return nil, &dfs.PathError{Op: op, Path: path, Err: err}
		}
		resp, err := c.hc.Do(req)
		if err == nil {
			return c.checkResp(resp, op, path)
		}
		if attempt >= gatewayMaxAttempts {
			return nil, &dfs.PathError{Op: op, Path: path, Err: err}
		}
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
	resp, err := c.doResilient("write", path, func() (*http.Request, error) {
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

// ReadFile implements dfs.FS. Reads retry transport errors.
func (c *FSClient) ReadFile(path string) ([]byte, error) {
	resp, err := c.doResilient("read", path, func() (*http.Request, error) {
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

// List implements dfs.FS. Retried like ReadFile.
func (c *FSClient) List(prefix string) ([]string, error) {
	resp, err := c.doResilient("list", prefix, func() (*http.Request, error) {
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

// Stat implements dfs.FS. Retried like ReadFile.
func (c *FSClient) Stat(path string) (int64, error) {
	resp, err := c.doResilient("stat", path, func() (*http.Request, error) {
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
