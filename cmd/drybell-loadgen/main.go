// Command drybell-loadgen is an open-loop load generator for drybelld's
// /v1/predict path. Unlike a closed-loop client — whose arrival rate
// politely collapses to whatever the server sustains — an open-loop
// generator keeps firing on its own schedule, which is the only way to
// observe what a server does *past* saturation: does latency grow without
// bound, or does admission control shed the excess and keep the admitted
// tail flat?
//
// The run has two phases. A short closed-loop calibration estimates the
// server's capacity (sustained answers/sec with -conc in-flight requests).
// Then each -multipliers entry drives an open-loop point at that multiple
// of capacity for -duration, recording offered vs admitted vs shed counts
// and client-observed latency quantiles for admitted requests only.
//
// The resulting saturation curve — admitted p50/p99 and shed rate per
// offered-load point — is printed as a table and, with -out, written as a
// BENCH-style JSON document.
//
// Exit status serves smoke tests: with -require-sheds the run fails unless
// the server shed at least one request (proof it was actually driven past
// saturation), and any non-shed request failure is always fatal — under
// overload the contract is "shed or answer", never "error".
//
//	drybell-loadgen -url http://localhost:8080 -multipliers 0.5,1,2 \
//	    -duration 5s -out loadgen.json -require-sheds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/corpus"
	"repro/pkg/drybell/serve"
)

func main() {
	var (
		url      = flag.String("url", "http://localhost:8080", "base URL of the drybelld serve daemon")
		conc     = flag.Int("conc", 32, "closed-loop concurrency during calibration, and the per-point in-flight cap")
		calib    = flag.Duration("calibrate", 2*time.Second, "closed-loop calibration window used to estimate capacity")
		duration = flag.Duration("duration", 3*time.Second, "open-loop duration per load point")
		mults    = flag.String("multipliers", "0.5,1,1.5,2", "comma-separated load points, as multiples of calibrated capacity")
		deadline = flag.Duration("request-deadline", 0, "when > 0, stamp every request with this X-Request-Deadline")
		docs     = flag.Int("docs", 64, "distinct synthetic documents cycled through as request bodies")
		seed     = flag.Int64("seed", 1, "corpus seed for the request bodies")
		out      = flag.String("out", "", "write the saturation curve as JSON to this file ('-' for stdout)")
		requireS = flag.Bool("require-sheds", false, "exit non-zero unless the server shed at least one request")
		chaosDrp = flag.Float64("chaos-drop", 0, "probability a request is dropped on the wire before sending (injected network fault)")
		chaosDlR = flag.Float64("chaos-delay-rate", 0, "probability a request is delayed by -chaos-delay before sending")
		chaosDly = flag.Duration("chaos-delay", 5*time.Millisecond, "injected network delay for -chaos-delay-rate requests")
		chaosSed = flag.Int64("chaos-seed", 7, "seed for the injected fault schedule")
	)
	flag.Parse()
	cfg := chaosConfig{drop: *chaosDrp, delayRate: *chaosDlR, delay: *chaosDly, seed: *chaosSed}
	if err := run(*url, *conc, *calib, *duration, *mults, *deadline, *docs, *seed, *out, *requireS, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "drybell-loadgen: %v\n", err)
		os.Exit(1)
	}
}

// chaosConfig describes the client-side fault injection: drops and delays
// on the wire between generator and server, so a smoke run can prove the
// admitted-traffic contract holds on an unreliable network.
type chaosConfig struct {
	drop, delayRate float64
	delay           time.Duration
	seed            int64
}

func (c chaosConfig) active() bool { return c.drop > 0 || c.delayRate > 0 }

// point is one open-loop measurement: offered load vs what came back.
type point struct {
	Multiplier float64 `json:"multiplier"`
	TargetRPS  float64 `json:"target_rps"`
	Offered    int64   `json:"offered"`
	Admitted   int64   `json:"admitted"`
	Shed       int64   `json:"shed"`
	Failed     int64   `json:"failed"`
	// Dropped counts requests the injected fault schedule killed on the
	// wire before they reached the server; they are chaos, not failures.
	Dropped int64 `json:"dropped,omitempty"`
	// NotSent counts schedule slots skipped because the in-flight cap was
	// reached — the generator's own safety valve, reported so a truncated
	// offer is visible instead of silently inflating admit rates.
	NotSent       int64   `json:"not_sent"`
	ShedRate      float64 `json:"shed_rate"`
	AdmittedP50Ms float64 `json:"admitted_p50_ms"`
	AdmittedP99Ms float64 `json:"admitted_p99_ms"`
}

// report is the JSON document -out writes.
type report struct {
	Bench       string          `json:"bench"`
	URL         string          `json:"url"`
	CapacityRPS float64         `json:"capacity_rps"`
	Points      []point         `json:"points"`
	Server      json.RawMessage `json:"server_metrics,omitempty"`
}

func run(url string, conc int, calib, duration time.Duration, mults string, deadline time.Duration,
	nDocs int, seed int64, out string, requireSheds bool, cc chaosConfig) error {
	bodies, err := makeBodies(nDocs, seed)
	if err != nil {
		return err
	}
	var transport http.RoundTripper = &http.Transport{
		MaxIdleConns:        4 * conc,
		MaxIdleConnsPerHost: 4 * conc,
	}
	var faults *chaos.Transport
	if cc.active() {
		faults = chaos.NewTransport(cc.seed, transport)
		faults.DropRate = cc.drop
		faults.DelayRate = cc.delayRate
		faults.Delay = cc.delay
		// Only /v1/predict traffic gets chaos; health checks and the final
		// metrics scrape should just work.
		faults.Match = func(r *http.Request) bool { return strings.HasPrefix(r.URL.Path, "/v1/predict") }
		transport = faults
	}
	client := &http.Client{Timeout: 30 * time.Second, Transport: transport}
	g := &generator{url: url, client: client, bodies: bodies, deadline: deadline}

	if err := g.waitHealthy(30 * time.Second); err != nil {
		return err
	}

	capacity, err := g.calibrate(conc, calib)
	if err != nil {
		return err
	}
	fmt.Printf("calibrated capacity ≈ %.0f req/s (%d closed-loop clients, %s)\n", capacity, conc, calib)

	multipliers, err := parseMultipliers(mults)
	if err != nil {
		return err
	}
	rep := report{Bench: "drybell-loadgen", URL: url, CapacityRPS: capacity}
	fmt.Printf("%10s %10s %9s %9s %9s %8s %9s %9s\n",
		"load", "target/s", "admitted", "shed", "failed", "shed%", "p50(ms)", "p99(ms)")
	for _, m := range multipliers {
		p := g.drive(m, m*capacity, duration, conc)
		rep.Points = append(rep.Points, p)
		fmt.Printf("%9.2fx %10.0f %9d %9d %9d %7.1f%% %9.1f %9.1f\n",
			p.Multiplier, p.TargetRPS, p.Admitted, p.Shed, p.Failed,
			100*p.ShedRate, p.AdmittedP50Ms, p.AdmittedP99Ms)
	}
	if faults != nil {
		fmt.Printf("chaos: %d requests dropped on the wire, %d delayed\n",
			faults.Dropped.Load(), faults.Delayed.Load())
	}
	rep.Server = g.serverMetrics()

	var totalShed, totalFailed int64
	for _, p := range rep.Points {
		totalShed += p.Shed
		totalFailed += p.Failed
	}
	if out != "" {
		if err := writeReport(out, &rep); err != nil {
			return err
		}
	}
	if totalFailed > 0 {
		return fmt.Errorf("%d requests failed with non-shed errors; overload must shed, not error", totalFailed)
	}
	if requireSheds && totalShed == 0 {
		return fmt.Errorf("no request was shed; the server was never driven past saturation")
	}
	return nil
}

// makeBodies encodes nDocs synthetic topic documents as JSON request bodies
// to cycle through, so the NLP/feature path sees varied content instead of
// one endlessly cached record.
func makeBodies(nDocs int, seed int64) ([][]byte, error) {
	all, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: nDocs, PositiveRate: 0.2, Seed: seed})
	if err != nil {
		return nil, err
	}
	return corpus.MarshalDocuments(all)
}

func parseMultipliers(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		m, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || m <= 0 {
			return nil, fmt.Errorf("bad multiplier %q (want positive numbers, e.g. 0.5,1,2)", part)
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no multipliers given")
	}
	return out, nil
}

type generator struct {
	url      string
	client   *http.Client
	bodies   [][]byte
	deadline time.Duration
	next     atomic.Int64 // round-robin body cursor
}

func (g *generator) waitHealthy(patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		resp, err := g.client.Get(g.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server at %s never became healthy: %w", g.url, err)
			}
			return fmt.Errorf("server at %s never became healthy", g.url)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// predict fires one request and classifies the answer.
func (g *generator) predict() (admitted bool, shed bool, latency time.Duration, err error) {
	body := g.bodies[int(g.next.Add(1))%len(g.bodies)]
	req, err := http.NewRequest(http.MethodPost, g.url+"/v1/predict", strings.NewReader(string(body)))
	if err != nil {
		return false, false, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if g.deadline > 0 {
		req.Header.Set(serve.DeadlineHeader, g.deadline.String())
	}
	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		return false, false, 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	lat := time.Since(start)
	switch resp.StatusCode {
	case http.StatusOK:
		return true, false, lat, nil
	case http.StatusTooManyRequests:
		return false, true, lat, nil
	default:
		return false, false, lat, fmt.Errorf("status %d", resp.StatusCode)
	}
}

// calibrate estimates capacity with a closed loop: conc clients re-request
// as fast as the server answers, so completions/sec converges on sustained
// throughput. Shed answers count toward nothing — capacity is what the
// server *serves*.
func (g *generator) calibrate(conc int, window time.Duration) (float64, error) {
	var done atomic.Int64
	var firstErr atomic.Value
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				admitted, shedded, _, err := g.predict()
				if errors.Is(err, chaos.ErrInjected) {
					continue // scheduled chaos, not a server failure
				}
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				if admitted {
					done.Add(1)
				}
				if shedded {
					// Closed-loop calibration shouldn't shed; if it does,
					// ease off so the estimate reflects served throughput.
					time.Sleep(10 * time.Millisecond)
				}
			}
		}()
	}
	start := time.Now()
	time.Sleep(window)
	close(stop)
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	elapsed := time.Since(start).Seconds()
	capacity := float64(done.Load()) / elapsed
	if capacity <= 0 {
		return 0, fmt.Errorf("calibration answered no requests in %s", window)
	}
	return capacity, nil
}

// drive runs one open-loop point: fire at rate for duration regardless of
// responses (bounded only by a generous in-flight cap so a wedged server
// cannot leak goroutines without bound), then fold the answers into a point.
func (g *generator) drive(multiplier, rate float64, duration time.Duration, conc int) point {
	// Fire in small bursts on a coarse tick: sub-millisecond tickers are
	// noise, so for high rates send floor(rate*tick) per tick and carry the
	// remainder forward.
	const tick = 5 * time.Millisecond
	perTick := rate * tick.Seconds()

	inflight := make(chan struct{}, 8*conc)
	var offered, admitted, shed, failed, dropped, notSent atomic.Int64
	var mu sync.Mutex
	var latencies []time.Duration

	var wg sync.WaitGroup
	fire := func() {
		offered.Add(1)
		select {
		case inflight <- struct{}{}:
		default:
			notSent.Add(1)
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-inflight }()
			ok, sh, lat, err := g.predict()
			switch {
			case errors.Is(err, chaos.ErrInjected):
				dropped.Add(1)
			case err != nil:
				failed.Add(1)
			case sh:
				shed.Add(1)
			case ok:
				admitted.Add(1)
				mu.Lock()
				latencies = append(latencies, lat)
				mu.Unlock()
			}
		}()
	}

	t := time.NewTicker(tick)
	defer t.Stop()
	end := time.Now().Add(duration)
	carry := 0.0
	for now := range t.C {
		if now.After(end) {
			break
		}
		carry += perTick
		for ; carry >= 1; carry-- {
			fire()
		}
	}
	wg.Wait()

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p := point{
		Multiplier:    multiplier,
		TargetRPS:     rate,
		Offered:       offered.Load(),
		Admitted:      admitted.Load(),
		Shed:          shed.Load(),
		Failed:        failed.Load(),
		Dropped:       dropped.Load(),
		NotSent:       notSent.Load(),
		AdmittedP50Ms: quantileMs(latencies, 0.50),
		AdmittedP99Ms: quantileMs(latencies, 0.99),
	}
	if answered := p.Admitted + p.Shed; answered > 0 {
		p.ShedRate = float64(p.Shed) / float64(answered)
	}
	return p
}

func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// serverMetrics snapshots /v1/metrics for the report; best-effort.
func (g *generator) serverMetrics() json.RawMessage {
	resp, err := g.client.Get(g.url + "/v1/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(data) {
		return nil
	}
	return json.RawMessage(data)
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
