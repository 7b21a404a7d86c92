// The sweep-cold workload.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"refocus/internal/arch"
	"refocus/internal/cluster"
	"refocus/internal/serve"
)

// digestSweeps is how many leading sweeps of the seeded sequence the
// output digest covers; every run completes at least these.
const digestSweeps = 4

// sweepCold is the sweep-cold workload: nproc closed-loop clients each
// submit streamed NDJSON /v1/sweep requests of sweepSize never-seen
// points to a coordinator over two workers, so every point misses and
// the write side — routing, dispatch, evaluation, cache insertion and
// eviction, streaming — does the work.
type sweepCold struct {
	env
	workers []*worker
	coord   *coordinator
	client  *http.Client
	timer   *handlerTimer
	digests [][]byte // per digest sweep, set by the first measurement
	traced  *sweepTrace
}

// sweepTrace is what the traced measurement keeps for layers.
type sweepTrace struct {
	before, after promSample
}

func newSweepCold(e env) *sweepCold { return &sweepCold{env: e} }

func (s *sweepCold) setup(ctx context.Context, tr *tracer) error {
	s.timer = nil
	if tr != nil {
		s.timer = newHandlerTimer(tr)
	}
	var shards []string
	for i := 0; i < 2; i++ {
		w, err := startWorker(serve.Config{}, s.timer)
		if err != nil {
			return err
		}
		s.workers = append(s.workers, w)
		shards = append(shards, w.lb.URL)
	}
	c, err := startCoordinator(cluster.Config{Shards: shards}, s.timer)
	if err != nil {
		return err
	}
	s.coord = c
	s.client = newHTTPClient(s.clients)
	// Every client warms its connection and the code paths with a sweep
	// outside the measured sequence (negative indices: the names never
	// recur, so the measured points still miss).
	errs := make([]error, s.clients)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = s.runSweep(ctx, -10-c, nil, ctx).err
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *sweepCold) close() {
	if s.coord != nil {
		s.coord.Close()
		s.coord = nil
	}
	for _, w := range s.workers {
		w.Close()
	}
	s.workers = nil
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

// sweepResult is one streamed sweep as the client saw it.
type sweepResult struct {
	index     int
	end       time.Duration // from the measured window's start
	latency   time.Duration
	first     time.Duration
	reports   [][32]byte // per point: SHA-256 of the streamed Reports
	arrived   []int      // per point: lines received
	lineErrs  []string   // per point: inline error
	extraLine bool
	err       error
}

// runSweep submits sweep i of the seeded sequence and reads its NDJSON
// stream to the end.
func (s *sweepCold) runSweep(ctx context.Context, i int, tr *tracer, lane context.Context) sweepResult {
	pts := sweepRequest(s.seed, i)
	req := serve.SweepRequest{Points: make([]serve.EvaluateRequest, len(pts))}
	for j, p := range pts {
		req.Points[j] = p.Req
	}
	body, err := json.Marshal(req)
	if err != nil {
		return sweepResult{err: err}
	}
	res := sweepResult{
		index:    i,
		reports:  make([][32]byte, len(pts)),
		arrived:  make([]int, len(pts)),
		lineErrs: make([]string, len(pts)),
	}
	sp := tr.span(lane, "client.sweep")
	defer sp.End()
	start := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.coord.lb.URL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", serve.NDJSONContentType)
	resp, err := s.client.Do(hreq)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("sweep: status %d", resp.StatusCode)
		return res
	}
	rd := bufio.NewReader(resp.Body)
	for n := 0; ; n++ {
		line, err := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if n == 0 {
				res.first = time.Since(start)
			}
			var l struct {
				Index   int
				Error   string
				Reports json.RawMessage
			}
			if derr := json.Unmarshal(line, &l); derr != nil || l.Index < 0 || l.Index >= len(pts) {
				res.extraLine = true
			} else {
				res.arrived[l.Index]++
				res.lineErrs[l.Index] = l.Error
				res.reports[l.Index] = sha256.Sum256(l.Reports)
			}
		}
		if err != nil {
			break
		}
	}
	res.latency = time.Since(start)
	return res
}

func (s *sweepCold) measure(ctx context.Context, d time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{}
	var t sweepTrace
	if tr != nil {
		var err error
		if t.before, err = scrape(ctx, s.client, s.coord.lb.URL); err != nil {
			return nil, err
		}
	}
	var next atomic.Int64
	var mu sync.Mutex
	var results []sweepResult
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := tr.lane(ctx)
			for {
				i := int(next.Add(1)) - 1
				if i >= digestSweeps && !time.Now().Before(deadline) {
					return
				}
				res := s.runSweep(ctx, i, tr, lane)
				res.end = time.Since(start)
				mu.Lock()
				results = append(results, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	m.CPU = cpuTime() - cpu0
	sort.Slice(results, func(a, b int) bool { return results[a].index < results[b].index })

	// Checks, after the clock: every point arrived exactly once with no
	// inline error, and its reports are bit-equal to in-process
	// arch.EvaluateAll of the same design point.
	var digests [][]byte
	var ops []opSpan
	for _, res := range results {
		m.Attempted += len(res.reports)
		if res.err != nil {
			// Every point of a failed sweep is lost; fail counts one.
			m.Failed += len(res.reports) - 1
			m.fail("sweep %d: %v", res.index, res.err)
			continue
		}
		if res.extraLine {
			m.fail("sweep %d: unparseable or out-of-range stream line", res.index)
		}
		m.Latency = append(m.Latency, res.latency)
		m.First = append(m.First, res.first)
		pts := sweepRequest(s.seed, res.index)
		verified := 0
		for j, p := range pts {
			switch {
			case res.arrived[j] != 1:
				m.fail("sweep %d point %d arrived %d times", res.index, j, res.arrived[j])
				continue
			case res.lineErrs[j] != "":
				m.fail("sweep %d point %d: %s", res.index, j, res.lineErrs[j])
				continue
			}
			if err := checkSweepPoint(p, res.reports[j]); err != nil {
				m.fail("sweep %d point %d: %v", res.index, j, err)
				continue
			}
			verified++
			if res.index < digestSweeps {
				digests = append(digests, res.reports[j][:])
			}
		}
		m.Work += float64(verified)
		ops = append(ops, opSpan{from: res.end - res.latency, to: res.end, work: float64(verified)})
	}
	m.Rates = sliceRates(ops, elapsed)
	if s.digests == nil {
		s.digests = digests
	}
	if tr != nil {
		var err error
		if t.after, err = scrape(ctx, s.client, s.coord.lb.URL); err != nil {
			return nil, err
		}
		s.traced = &t
	}
	return m, nil
}

// checkSweepPoint evaluates a sweep point in-process and compares the
// hash of its reports, in the compact encoding the stream carries them
// in, with the hash of the streamed ones. Every float encodes to the
// shortest text that round-trips its bits, so equal hashes mean the
// reports are bit-equal.
func checkSweepPoint(p sweepPoint, got [32]byte) error {
	reports, err := arch.EvaluateAll(p.Cfg, p.Nets)
	if err != nil {
		return err
	}
	data, err := json.Marshal(reports)
	if err != nil {
		return err
	}
	if sha256.Sum256(data) != got {
		return fmt.Errorf("reports differ from in-process arch.EvaluateAll")
	}
	return nil
}

func (s *sweepCold) layers(ctx context.Context, tr *tracer, facts map[string]any) (map[string]float64, error) {
	t := s.traced
	if t == nil {
		return nil, errShortRun
	}
	points := delta(t.before, t.after, "refocus_cluster_points_total")
	if points <= 0 {
		return nil, fmt.Errorf("coordinator dispatched no points")
	}
	routed := make([]float64, 0, len(s.workers))
	for _, w := range s.workers {
		routed = append(routed, delta(t.before, t.after, fmt.Sprintf(`refocus_cluster_routed_total{shard=%q}`, w.lb.URL)))
	}
	maxRouted, sum := 0.0, 0.0
	for _, r := range routed {
		maxRouted = math.Max(maxRouted, r)
		sum += r
	}
	v := map[string]float64{
		"cluster.shard_skew":       maxRouted / (sum / float64(len(routed))),
		"cluster.hedges_per_1k":    sumDelta(t.before, t.after, "refocus_cluster_hedges_total") / points * 1000,
		"cluster.failovers_per_1k": sumDelta(t.before, t.after, "refocus_cluster_failovers_total") / points * 1000,
	}

	// Ring placement, timed per call on the route keys of real points.
	pts := sweepRequest(s.seed, -2)
	limits := serve.SpecLimits{}.WithDefaults()
	keys := make([]string, len(pts))
	for i, p := range pts {
		k, err := serve.RouteKey(p.Req, limits)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	lane := tr.lane(ctx)
	ring := s.coord.c.Ring()
	sp := tr.span(lane, "probe.cluster.Ring.Successors")
	v["cluster.ring_successors_ns"] = float64(perCall(100*time.Millisecond, len(keys), func(i int) { ring.Successors(keys[i], 2) }))
	sp.End()

	// Proxy overhead: the same points, already cached on their owning
	// shard, fetched through the coordinator and directly from the owner.
	bodies := make([][]byte, len(pts))
	owners := make([]string, len(pts))
	for i, p := range pts {
		b, err := json.Marshal(p.Req)
		if err != nil {
			return nil, err
		}
		bodies[i], owners[i] = b, ring.Route(keys[i])
		if _, err := postJSON(ctx, s.client, s.coord.lb.URL+"/v1/evaluate", b); err != nil {
			return nil, err
		}
	}
	var via, direct samples
	sp = tr.span(lane, "probe.cluster.proxy")
	for round := 0; round < 8; round++ {
		for i, b := range bodies {
			t0 := time.Now()
			if _, err := postJSON(ctx, s.client, s.coord.lb.URL+"/v1/evaluate", b); err != nil {
				return nil, err
			}
			via = append(via, time.Since(t0))
			t0 = time.Now()
			if _, err := postJSON(ctx, s.client, owners[i]+"/v1/evaluate", b); err != nil {
				return nil, err
			}
			direct = append(direct, time.Since(t0))
		}
	}
	sp.End()
	v["cluster.proxy_overhead_us"] = us(via.quantile(0.5)) - us(direct.quantile(0.5))
	return v, nil
}

func (s *sweepCold) named(m *measurement) []namedMetric {
	return []namedMetric{
		{Name: "points_per_s", Value: m.throughput(), Unit: "points/s", Samples: int(m.Work)},
		{Name: "latency_p50_ms", Value: ms(m.Latency.quantile(0.5)), Unit: "ms", Samples: len(m.Latency)},
		{Name: "latency_p90_ms", Value: ms(m.Latency.quantile(0.9)), Unit: "ms", Samples: len(m.Latency)},
		{Name: "first_result_p50_ms", Value: ms(m.First.quantile(0.5)), Unit: "ms", Samples: len(m.First)},
	}
}

func (s *sweepCold) digest() string { return digestOf(s.digests) }
