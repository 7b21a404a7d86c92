// The evaluate-hot workload.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"refocus/internal/arch"
	"refocus/internal/dataflow"
	"refocus/internal/nn"
	"refocus/internal/serve"
	"refocus/internal/sim"
)

// roundTripTolerance is how far the median client round trip may sit
// from median overhead + median handler time before the traced run's
// attribution check fails, as a share of the median round trip. Medians
// of skewed distributions do not add exactly, hence the slack.
const roundTripTolerance = 0.25

// evalHot is the evaluate-hot workload: nproc closed-loop clients send
// POST /v1/evaluate to one worker, drawing from a 24-request set that
// the warm-up has put in the result cache, so nearly every request is a
// hit. It isolates the serve request path.
type evalHot struct {
	env
	reqs   []serve.EvaluateRequest
	bodies [][]byte
	// want is each request's cache-hit response body, recorded by the
	// first set-up and checked against in-process evaluation.
	want      [][]byte
	validated bool

	w      *worker
	timer  *handlerTimer
	client *http.Client
	traced *hotTrace
}

// hotTrace is what the traced measurement keeps for layers.
type hotTrace struct {
	roundTrip, handler, overhead samples
	before, after                promSample
	mem0, mem1                   runtime.MemStats
	respBytes                    int64
}

func newEvalHot(e env) *evalHot {
	h := &evalHot{env: e, reqs: hotRequests(e.seed)}
	for _, r := range h.reqs {
		body, err := json.Marshal(r)
		if err != nil {
			panic(err) // plain structs always encode
		}
		h.bodies = append(h.bodies, body)
	}
	h.want = make([][]byte, len(h.reqs))
	return h
}

func (h *evalHot) setup(ctx context.Context, tr *tracer) error {
	h.timer = nil
	if tr != nil {
		h.timer = newHandlerTimer(tr)
	}
	w, err := startWorker(serve.Config{}, h.timer)
	if err != nil {
		return err
	}
	h.w = w
	h.client = newHTTPClient(h.clients)
	// One miss fills each entry; the second request is the hit whose
	// body every measured response must repeat byte for byte.
	for i, body := range h.bodies {
		if _, err := postJSON(ctx, h.client, w.lb.URL+"/v1/evaluate", body); err != nil {
			return err
		}
		hit, err := postJSON(ctx, h.client, w.lb.URL+"/v1/evaluate", body)
		if err != nil {
			return err
		}
		if h.want[i] == nil {
			h.want[i] = hit
		} else if !bytes.Equal(hit, h.want[i]) {
			return fmt.Errorf("request %d: cache-hit body differs between set-ups", i)
		}
	}
	// Then every client warms its own connection and the hit path with
	// a few rounds over the whole set, as the measured loop will.
	errs := make([]error, h.clients)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < hotWarmRounds && errs[c] == nil; r++ {
				for _, body := range h.bodies {
					if _, errs[c] = postJSON(ctx, h.client, w.lb.URL+"/v1/evaluate", body); errs[c] != nil {
						break
					}
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// hotWarmRounds is how many passes over the request set each client
// makes while setting up.
const hotWarmRounds = 10

func (h *evalHot) close() {
	if h.w != nil {
		h.w.Close()
		h.w = nil
	}
	if h.client != nil {
		h.client.CloseIdleConnections()
	}
}

// postJSON posts body and returns the response body of a 200.
func postJSON(ctx context.Context, c *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), nil
}

// hotClient is one closed-loop client's tally.
type hotClient struct {
	m         measurement
	ids       []string
	rts       []time.Duration
	respBytes int64
	ops       []opSpan
}

func (h *evalHot) measure(ctx context.Context, d time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{}
	if !h.validated {
		for i := range h.reqs {
			m.Attempted++
			if err := checkHotBody(h.reqs[i], h.want[i]); err != nil {
				m.fail("evaluate-hot request %d: %v", i, err)
			}
		}
		h.validated = true
	}
	var t hotTrace
	if tr != nil {
		var err error
		if t.before, err = scrape(ctx, h.client, h.w.lb.URL); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&t.mem0)
	}
	url := h.w.lb.URL + "/v1/evaluate"
	clients := make([]hotClient, h.clients)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(hc *hotClient, c int) {
			defer wg.Done()
			rng := newRand(mix(h.seed, streamHot), uint64(c+1))
			lane := tr.lane(ctx)
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				k := rng.Intn(len(h.reqs))
				hc.m.Attempted++
				sp := tr.span(lane, "client.evaluate")
				t0 := time.Now()
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(h.bodies[k]))
				if err != nil {
					return
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := h.client.Do(req)
				if err != nil {
					sp.End()
					hc.m.fail("evaluate: %v", err)
					continue
				}
				buf.Reset()
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				lat := time.Since(t0)
				sp.End()
				switch {
				case err != nil:
					hc.m.fail("evaluate: reading body: %v", err)
				case resp.StatusCode != http.StatusOK:
					hc.m.fail("evaluate: status %d", resp.StatusCode)
				case !bytes.Equal(buf.Bytes(), h.want[k]):
					hc.m.fail("evaluate request %d: body differs from the checked cache-hit body", k)
				default:
					hc.m.Work++
					hc.ops = append(hc.ops, opSpan{from: t0.Sub(start), to: t0.Sub(start) + lat, work: 1})
					hc.m.Latency = append(hc.m.Latency, lat)
					if tr != nil {
						hc.ids = append(hc.ids, resp.Header.Get("X-Request-ID"))
						hc.rts = append(hc.rts, lat)
						hc.respBytes += int64(buf.Len())
					}
				}
			}
		}(&clients[c], c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	m.CPU = cpuTime() - cpu0
	var ops []opSpan
	for i := range clients {
		hc := &clients[i]
		m.merge(&hc.m)
		m.Work += hc.m.Work
		ops = append(ops, hc.ops...)
		m.Latency = append(m.Latency, hc.m.Latency...)
		if tr == nil {
			continue
		}
		t.respBytes += hc.respBytes
		for j, id := range hc.ids {
			hd, ok := h.timer.take(id)
			if !ok {
				m.fail("evaluate: no handler time recorded for request %q", id)
				continue
			}
			t.roundTrip = append(t.roundTrip, hc.rts[j])
			t.handler = append(t.handler, hd)
			t.overhead = append(t.overhead, hc.rts[j]-hd)
		}
	}
	m.Rates = sliceRates(ops, elapsed)
	if tr != nil {
		runtime.ReadMemStats(&t.mem1)
		var err error
		if t.after, err = scrape(ctx, h.client, h.w.lb.URL); err != nil {
			return nil, err
		}
		h.traced = &t
	}
	return m, nil
}

// checkHotBody checks one cache-hit /v1/evaluate body against an
// in-process evaluation of the same design point: names, hashes, cache
// accounting and every report bit for bit.
func checkHotBody(req serve.EvaluateRequest, body []byte) error {
	var resp serve.EvaluateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	cfg, nets, err := resolveHot(req)
	if err != nil {
		return err
	}
	want, err := arch.EvaluateAll(cfg, nets)
	if err != nil {
		return err
	}
	hash, err := arch.ConfigHash(cfg)
	if err != nil {
		return err
	}
	if resp.Config != cfg.Name || resp.ConfigHash != hash {
		return fmt.Errorf("config %s/%s, want %s/%s", resp.Config, resp.ConfigHash, cfg.Name, hash)
	}
	if len(resp.Networks) != len(nets) || len(resp.NetworkHashes) != len(nets) {
		return fmt.Errorf("%d networks, want %d", len(resp.Networks), len(nets))
	}
	for i, n := range nets {
		nh, err := nn.NetworkHash(n)
		if err != nil {
			return err
		}
		if resp.Networks[i] != n.Name || resp.NetworkHashes[i] != nh {
			return fmt.Errorf("network %d is %s/%s, want %s/%s", i, resp.Networks[i], resp.NetworkHashes[i], n.Name, nh)
		}
	}
	if resp.CacheHits != len(nets) || resp.CacheMisses != 0 {
		return fmt.Errorf("cache hits/misses %d/%d, want %d/0", resp.CacheHits, resp.CacheMisses, len(nets))
	}
	return sameReports(resp.Reports, want)
}

// sameReports reports whether got equals want bit for bit. Every float
// encodes to the shortest text that round-trips its exact bits, so equal
// encodings mean equal values.
func sameReports(got, want []arch.Report) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("reports differ from in-process arch.EvaluateAll")
	}
	return nil
}

// resolveHot resolves an evaluate-hot request in-process, the way the
// worker does: preset, batch override, network set.
func resolveHot(req serve.EvaluateRequest) (arch.SystemConfig, []nn.Network, error) {
	cfg, err := arch.PresetByName(req.Preset)
	if err != nil {
		return cfg, nil, err
	}
	if err := json.Unmarshal(req.Overrides, &cfg); err != nil {
		return cfg, nil, err
	}
	nets, err := sim.ResolveNetworks(req.Network)
	return cfg, nets, err
}

func (h *evalHot) layers(ctx context.Context, tr *tracer, facts map[string]any) (map[string]float64, error) {
	t := h.traced
	if t == nil || len(t.roundTrip) == 0 {
		return nil, errShortRun
	}
	n := float64(len(t.roundTrip))
	reqs := delta(t.before, t.after, `refocus_requests_total{endpoint="/v1/evaluate"}`)
	if reqs <= 0 {
		return nil, fmt.Errorf("worker counted no /v1/evaluate requests")
	}
	stage := func(family string) float64 { return delta(t.before, t.after, family+"_sum") / reqs * 1e6 }
	hits := delta(t.before, t.after, "refocus_cache_hits_total")
	misses := delta(t.before, t.after, "refocus_cache_misses_total")
	v := map[string]float64{
		"serveclient.roundtrip_overhead_us": us(t.overhead.quantile(0.5)),
		"serve.handler_us":                  us(t.handler.mean()),
		"serve.stage.cache_lookup_us":       stage("refocus_cache_lookup_seconds"),
		"serve.stage.queue_wait_us":         stage("refocus_queue_wait_seconds"),
		"serve.stage.evaluate_us":           stage("refocus_evaluate_seconds"),
		"serve.stage.encode_us":             stage("refocus_encode_seconds"),
		"serve.cache_hit_ratio":             hits / math.Max(hits+misses, 1),
		"serve.evaluations":                 delta(t.before, t.after, "refocus_evaluations_total"),
		"serve.shed":                        delta(t.before, t.after, "refocus_shed_total"),
		"serve.response_bytes":              float64(t.respBytes) / n,
		"go.alloc_bytes_per_request":        float64(t.mem1.TotalAlloc-t.mem0.TotalAlloc) / n,
		"go.gc_per_1k_requests":             float64(t.mem1.NumGC-t.mem0.NumGC) / n * 1000,
	}

	// The same requests, timed call by call in the layers they reach.
	type resolved struct {
		cfg  arch.SystemConfig
		nets []nn.Network
		js   []byte
	}
	rs := make([]resolved, len(h.reqs))
	for i, req := range h.reqs {
		cfg, nets, err := resolveHot(req)
		if err != nil {
			return nil, err
		}
		js, err := arch.ConfigJSON(cfg)
		if err != nil {
			return nil, err
		}
		rs[i] = resolved{cfg, nets, js}
	}
	lane := tr.lane(ctx)
	limits := serve.SpecLimits{}.WithDefaults()
	var probeErr error
	keep := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}
	probe := func(name string, f func(i int)) float64 {
		sp := tr.span(lane, "probe."+name)
		defer sp.End()
		return us(perCall(200*time.Millisecond, len(h.reqs), f))
	}
	v["serve.route_key_us"] = probe("serve.RouteKey", func(i int) {
		_, err := serve.RouteKey(h.reqs[i], limits)
		keep(err)
	})
	v["nn.network_hash_us"] = probe("nn.NetworkHash", func(i int) {
		for _, net := range rs[i].nets {
			_, err := nn.NetworkHash(net)
			keep(err)
		}
	})
	v["arch.config_hash_us"] = probe("arch.ConfigHash", func(i int) {
		_, err := arch.ConfigHash(rs[i].cfg)
		keep(err)
	})
	v["arch.evaluate_all_us"] = probe("arch.EvaluateAll", func(i int) {
		_, err := arch.EvaluateAll(rs[i].cfg, rs[i].nets)
		keep(err)
	})
	v["dataflow.network_events_us"] = probe("dataflow.NetworkEvents", func(i int) {
		df := rs[i].cfg.DataflowConfig()
		df.InputsFromDRAM = true
		for _, net := range rs[i].nets {
			_, err := dataflow.NetworkEvents(net, df)
			keep(err)
		}
	})
	v["sim.load_config_us"] = probe("sim.LoadConfig", func(i int) {
		_, err := sim.LoadConfig(rs[i].js)
		keep(err)
	})
	if probeErr != nil {
		return nil, probeErr
	}

	// Attribution: what the worker's own stage histograms leave
	// unexplained once key derivation is added on top, and whether the
	// client round trip splits into overhead plus handler time.
	v["serve.attribution_residual_us"] = v["serve.handler_us"] - (v["serve.stage.cache_lookup_us"] +
		v["serve.stage.queue_wait_us"] + v["serve.stage.evaluate_us"] + v["serve.stage.encode_us"] + v["serve.route_key_us"])
	rt := us(t.roundTrip.quantile(0.5))
	split := us(t.overhead.quantile(0.5)) + us(t.handler.quantile(0.5))
	facts["roundtrip_p50_us"] = rt
	facts["overhead_plus_handler_p50_us"] = split
	facts["roundtrip_tolerance"] = roundTripTolerance
	if math.Abs(rt-split) > roundTripTolerance*rt {
		return nil, fmt.Errorf("round trip %.1fus is not overhead + handler %.1fus within %.0f%%", rt, split, roundTripTolerance*100)
	}
	return v, nil
}

func (h *evalHot) named(m *measurement) []namedMetric {
	return []namedMetric{
		{Name: "throughput_rps", Value: m.throughput(), Unit: "req/s", Samples: int(m.Work)},
		{Name: "latency_p50_ms", Value: ms(m.Latency.quantile(0.5)), Unit: "ms", Samples: len(m.Latency)},
		{Name: "latency_p90_ms", Value: ms(m.Latency.quantile(0.9)), Unit: "ms", Samples: len(m.Latency)},
	}
}

func (h *evalHot) digest() string { return digestOf(h.want) }
