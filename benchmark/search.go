// The search-evolve workload.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"refocus/internal/arch"
	"refocus/internal/nn"
	"refocus/internal/opt"
	"refocus/internal/serve"
)

// digestSearches is how many leading searches of the seeded sequence
// every run completes and the output digest covers.
const digestSearches = 2

// searchEvolve is the search-evolve workload: one client runs evolve
// searches through POST /v1/optimize, each on a freshly booted worker
// with its own checkpoint directory, and follows the NDJSON stream to
// the final line. It is the one workload where opt does most of the
// work: proposals, fronts, checkpoints and the job runtime.
type searchEvolve struct {
	env
	timer    *handlerTimer
	client   *http.Client
	stopWarm func()
	digests  [][]byte
}

func newSearchEvolve(e env) *searchEvolve { return &searchEvolve{env: e} }

// searchRun is one finished search as the client saw it.
type searchRun struct {
	latency time.Duration
	status  *opt.StatusResponse
}

// bootSearchWorker starts a worker whose searches checkpoint into a
// fresh directory; the returned func stops it and removes the directory.
func (s *searchEvolve) bootSearchWorker() (*worker, func(), error) {
	dir, err := os.MkdirTemp(s.scratch, "optimize-")
	if err != nil {
		return nil, nil, err
	}
	w, err := startWorker(serve.Config{OptimizeDir: dir}, s.timer)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return w, func() {
		w.Close()
		os.RemoveAll(dir)
	}, nil
}

// runSearch submits spec and reads its update stream to the final line.
func (s *searchEvolve) runSearch(ctx context.Context, w *worker, spec opt.Spec, tr *tracer, lane context.Context) (searchRun, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return searchRun{}, err
	}
	sp := tr.span(lane, "client.optimize")
	defer sp.End()
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.lb.URL+"/v1/optimize", bytes.NewReader(body))
	if err != nil {
		return searchRun{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", serve.NDJSONContentType)
	resp, err := s.client.Do(req)
	if err != nil {
		return searchRun{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return searchRun{}, fmt.Errorf("optimize: status %d", resp.StatusCode)
	}
	var run searchRun
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var u opt.Update
			if derr := json.Unmarshal(line, &u); derr != nil {
				return searchRun{}, fmt.Errorf("optimize: stream line: %w", derr)
			}
			if u.Status != nil {
				run.status = u.Status
			}
		}
		if err != nil {
			break
		}
	}
	run.latency = time.Since(start)
	if run.status == nil {
		return searchRun{}, fmt.Errorf("optimize: stream ended without a final status")
	}
	return run, nil
}

func (s *searchEvolve) setup(ctx context.Context, tr *tracer) error {
	s.timer = nil
	if tr != nil {
		s.timer = newHandlerTimer(tr)
	}
	s.client = newHTTPClient(1)
	w, stop, err := s.bootSearchWorker()
	if err != nil {
		return err
	}
	// The warm-up worker is torn down by close, outside the timed set-up:
	// removing its checkpoint directory costs what the filesystem makes
	// it cost, which is no part of setting the program up.
	s.stopWarm = stop
	warm := opt.Spec{Preset: "fb", Network: "all", Strategy: opt.StrategyEvolve, Generations: 3, Population: 16, Seed: mix(s.seed, streamSearch)}
	run, err := s.runSearch(ctx, w, warm, nil, ctx)
	if err != nil {
		return err
	}
	if run.status.Status != opt.StatusDone {
		return fmt.Errorf("warm-up search ended %s: %s", run.status.Status, run.status.Error)
	}
	return nil
}

func (s *searchEvolve) close() {
	if s.stopWarm != nil {
		s.stopWarm()
		s.stopWarm = nil
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

func (s *searchEvolve) measure(ctx context.Context, d time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{}
	lane := tr.lane(ctx)
	deadline := time.Now().Add(d)
	var digests [][]byte
	for i := 0; i < digestSearches || time.Now().Before(deadline); i++ {
		spec := searchSpec(s.seed, i)
		w, stop, err := s.bootSearchWorker()
		if err != nil {
			return nil, err
		}
		cpu0 := cpuTime()
		run, err := s.runSearch(ctx, w, spec, tr, lane)
		m.CPU += cpuTime() - cpu0
		stop()
		m.Attempted++
		if err != nil {
			m.fail("search %d: %v", i, err)
			continue
		}
		if err := checkSearch(spec, run.status); err != nil {
			m.fail("search %d: %v", i, err)
			continue
		}
		m.Work += float64(run.status.CompletedPoints)
		m.Rates = append(m.Rates, float64(run.status.CompletedPoints)/run.latency.Seconds())
		m.Latency = append(m.Latency, run.latency)
		if i < digestSearches {
			front, err := json.Marshal(run.status.Front)
			if err != nil {
				return nil, err
			}
			digests = append(digests, front)
		}
	}
	if s.digests == nil {
		s.digests = digests
	}
	return m, nil
}

// checkSearch checks a finished search: it is done, it spent exactly its
// budget, its front is mutually non-dominated, and every front point's
// metrics re-derive bit for bit from in-process arch.EvaluateAll.
func checkSearch(spec opt.Spec, st *opt.StatusResponse) error {
	if st.Status != opt.StatusDone {
		return fmt.Errorf("ended %s: %s", st.Status, st.Error)
	}
	budget := spec.Generations * spec.Population
	if st.TotalPoints != budget || st.CompletedPoints != budget || st.ExecutedPoints != budget {
		return fmt.Errorf("total/completed/executed %d/%d/%d, want %d", st.TotalPoints, st.CompletedPoints, st.ExecutedPoints, budget)
	}
	if len(st.Front) == 0 {
		return fmt.Errorf("empty front")
	}
	vecs := make([][]float64, len(st.Front))
	for i, fp := range st.Front {
		m := fp.Metrics
		vecs[i] = []float64{m.FPS, m.FPSPerWatt, m.FPSPerMM2, m.PAP}
	}
	for i := range vecs {
		for j := range vecs {
			if i != j && opt.Dominates(vecs[j], vecs[i]) {
				return fmt.Errorf("front point %s is dominated by %s", st.Front[i].Config, st.Front[j].Config)
			}
		}
	}
	nets, err := spec.ResolveNetworks()
	if err != nil {
		return err
	}
	for _, fp := range st.Front {
		if err := rederive(fp, nets); err != nil {
			return err
		}
	}
	return nil
}

// rederive evaluates a front point's design in-process and compares its
// identity and objectives with the ones the search reported.
func rederive(fp opt.FrontPoint, nets []nn.Network) error {
	cfg := arch.FB()
	cfg.Name = fp.Config
	cfg.M, cfg.NRFCU, cfg.NLambda, cfg.Reuses = fp.M, fp.NRFCU, fp.NLambda, fp.Reuses
	hash, err := arch.ConfigHash(cfg)
	if err != nil {
		return err
	}
	if hash != fp.ConfigHash {
		return fmt.Errorf("front point %s: config hash %s, want %s", fp.Config, fp.ConfigHash, hash)
	}
	reports, err := arch.EvaluateAll(cfg, nets)
	if err != nil {
		return err
	}
	pm := opt.PointMetricsFromReports(reports)
	want := opt.Metrics{FPS: pm.FPS, FPSPerWatt: pm.FPSPerWatt, FPSPerMM2: pm.FPSPerMM2, PAP: pm.PAP, PowerW: pm.PowerW, AreaMM2: pm.AreaMM2}
	if fp.Metrics != want {
		return fmt.Errorf("front point %s: metrics %+v, re-derived %+v", fp.Config, fp.Metrics, want)
	}
	return nil
}

// evalTimer is the timing opt.PointEval of the traced run: it wraps the
// in-process evaluation and tracks when at least one candidate is in
// flight, so the search's wall time splits into evaluation and the
// rest — proposal, front computation and checkpointing.
type evalTimer struct {
	inner opt.PointEval

	mu        sync.Mutex
	inFlight  int
	busySince time.Time
	busy      time.Duration
	evals     samples
	keys      map[string]int
}

func (t *evalTimer) eval(ctx context.Context, spec opt.Spec, cfg arch.SystemConfig, key string) (opt.PointMetrics, error) {
	t.mu.Lock()
	if t.inFlight == 0 {
		t.busySince = time.Now()
	}
	t.inFlight++
	t.keys[key]++
	t.mu.Unlock()
	start := time.Now()
	pm, err := t.inner(ctx, spec, cfg, key)
	d := time.Since(start)
	t.mu.Lock()
	t.inFlight--
	t.evals = append(t.evals, d)
	if t.inFlight == 0 {
		t.busy += time.Since(t.busySince)
	}
	t.mu.Unlock()
	return pm, err
}

func (s *searchEvolve) layers(ctx context.Context, tr *tracer, facts map[string]any) (map[string]float64, error) {
	dir, err := os.MkdirTemp(s.scratch, "runner-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t := &evalTimer{inner: opt.DirectEval(), keys: map[string]int{}}
	mgr, err := opt.NewManager(opt.ManagerConfig{Dir: dir, Eval: t.eval, Parallelism: 4})
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	spec := searchSpec(s.seed, 0)
	lane := tr.lane(ctx)
	sp := tr.span(lane, "probe.opt.Runner.Run")
	start := time.Now()
	job, _, err := mgr.Start(spec)
	if err != nil {
		return nil, err
	}
	// Poll the job's status while it runs, timing each call.
	var status samples
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
poll:
	for {
		select {
		case <-job.Done():
			break poll
		case <-tick.C:
			t0 := time.Now()
			job.Status()
			status = append(status, time.Since(t0))
		}
	}
	wall := time.Since(start)
	sp.End()
	st := job.Status()
	if err := checkSearch(spec.WithDefaults(), &st); err != nil {
		return nil, fmt.Errorf("traced search: %w", err)
	}
	info, err := os.Stat(opt.CheckpointPath(dir, job.ID()))
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(status) == 0 {
		t0 := time.Now()
		job.Status()
		status = append(status, time.Since(t0))
	}
	propose := wall - t.busy
	var evalTotal time.Duration
	for _, d := range t.evals {
		evalTotal += d
	}
	facts["opt_wall_ms"] = ms(wall)
	facts["opt_busy_ms"] = ms(t.busy)
	return map[string]float64{
		"opt.propose_ms_per_gen":    ms(propose) / float64(spec.Generations),
		"opt.propose_ms_total":      ms(propose),
		"opt.eval_ms_total":         ms(evalTotal),
		"opt.eval_us_per_candidate": us(t.evals.mean()),
		"opt.revisit_ratio":         1 - float64(len(t.keys))/float64(len(t.evals)),
		"opt.status_us":             us(status.quantile(0.5)),
		"opt.checkpoint_kb":         float64(info.Size()) / 1024,
		"opt.front_size":            float64(len(st.Front)),
	}, nil
}

func (s *searchEvolve) named(m *measurement) []namedMetric {
	return []namedMetric{
		{Name: "search_p50_s", Value: m.Latency.quantile(0.5).Seconds(), Unit: "s", Samples: len(m.Latency)},
		{Name: "points_per_s", Value: m.throughput(), Unit: "points/s", Samples: int(m.Work)},
	}
}

func (s *searchEvolve) digest() string { return digestOf(s.digests) }
