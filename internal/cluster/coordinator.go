package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"time"

	"refocus/internal/obs"
	"refocus/internal/opt"
	"refocus/internal/robust"
	"refocus/internal/serve"
	"refocus/internal/serveclient"
)

// Config tunes the coordinator. Shards is required; everything else has
// serving-grade defaults.
type Config struct {
	// Shards are the worker base URLs ("http://127.0.0.1:9101", ...).
	// Order is only cosmetic — placement comes from the ring.
	Shards []string
	// VNodes is the ring's per-shard virtual-node count; < 1 means
	// DefaultVNodes.
	VNodes int
	// Seed seeds ring placement; every coordinator over one cluster must
	// share it.
	Seed uint64
	// HedgeDelay is how long a point waits on its primary shard before a
	// duplicate attempt is launched on the next ring successor; <= 0
	// disables latency hedging (failover on error still happens).
	// Default 250ms.
	HedgeDelay time.Duration
	// Attempts caps how many ring successors one point may try (primary
	// included). Default 2, clamped to the shard count.
	Attempts int
	// ShardConcurrency bounds concurrent dispatches per primary shard, so
	// a huge sweep saturates the cluster evenly instead of flooding one
	// shard's queue into shedding. Default 8.
	ShardConcurrency int
	// SweepTimeout bounds one whole sweep; individual points inherit it.
	// Default 120s.
	SweepTimeout time.Duration
	// MaxBodyBytes caps request body size; larger bodies get 413.
	// Default 8 MiB (sweeps are batches; the worker default is 1 MiB).
	MaxBodyBytes int64
	// CampaignDir is the robustness-campaign checkpoint directory for
	// campaigns the coordinator runs (trials fan out across the shards).
	// Empty disables durability.
	CampaignDir string
	// OptimizeDir is the design-space-search checkpoint directory for
	// searches the coordinator runs (candidate evaluations fan out across
	// the shards). Empty disables durability.
	OptimizeDir string
	// Client is the template for the per-shard serveclient configuration
	// (BaseURL is overwritten per shard). The zero value gets defaults
	// tuned for fast failover: 1 retry, breaker threshold 2; a nil
	// HTTPClient gets one connection pool shared by every shard client,
	// sized from ShardConcurrency (see shardTransport).
	Client serveclient.Config
	// Limits are the inline-spec resource limits enforced at the edge —
	// rejecting an oversized spec here costs no shard round trip. Zero
	// fields get the serve package defaults.
	Limits serve.SpecLimits
	// Logger receives one line per dispatched point; nil silences it.
	Logger *slog.Logger
	// Trace, when non-nil, collects one span per dispatched point with
	// its route and outcome — the coordinator-side flight recorder the CI
	// job uploads as an artifact.
	Trace *obs.Trace
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.VNodes < 1 {
		c.VNodes = DefaultVNodes
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 250 * time.Millisecond
	}
	if c.Attempts < 1 {
		c.Attempts = 2
	}
	if c.Attempts > len(c.Shards) {
		c.Attempts = len(c.Shards)
	}
	if c.ShardConcurrency < 1 {
		c.ShardConcurrency = 8
	}
	if c.SweepTimeout <= 0 {
		c.SweepTimeout = 120 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Client.MaxRetries == 0 {
		c.Client.MaxRetries = 1
	}
	if c.Client.BreakerThreshold == 0 {
		c.Client.BreakerThreshold = 2
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	c.Limits = c.Limits.WithDefaults()
	return c
}

// Coordinator fronts a set of worker shards with the single-node serve
// API: POST /v1/evaluate and /v1/sweep (buffered and NDJSON lanes),
// GET /healthz and /metrics. Each request routes by serve.RouteKey on
// the consistent-hash ring, dispatches through the per-shard serveclient
// (retries, breaker) with hedging onto ring successors, and — because
// shards key their caches by the same identity — turns cluster-wide
// repeats into cache hits on whichever shard owns them.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	clients map[string]*serveclient.Client
	sems    map[string]chan struct{}
	metrics *Metrics
	mux     *http.ServeMux
	logger  *slog.Logger
	robust  *robust.Manager
	opt     *opt.Manager
	// transport is the connection pool every shard client shares; nil
	// when Config.Client brought its own HTTPClient.
	transport *http.Transport
}

// shardTransport returns the connection pool the shard clients share.
// Its idle pool keeps one connection for every request a shard can have
// in flight: ShardConcurrency dispatches as primary, plus as many again
// for every further ring position it may hold as a hedge or failover
// target. A smaller pool (the default transport keeps 2 per host)
// closes connections after every burst and redials them on the next.
func shardTransport(cfg Config) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = cfg.ShardConcurrency * cfg.Attempts
	t.MaxIdleConns = t.MaxIdleConnsPerHost * len(cfg.Shards)
	return t
}

// New builds a Coordinator and its per-shard clients.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Shards, cfg.VNodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		ring:    ring,
		clients: make(map[string]*serveclient.Client, len(cfg.Shards)),
		sems:    make(map[string]chan struct{}, len(cfg.Shards)),
		metrics: newClusterMetrics(cfg.Shards),
		mux:     http.NewServeMux(),
		logger:  cfg.Logger,
	}
	if cfg.Client.HTTPClient == nil {
		c.transport = shardTransport(cfg)
		cfg.Client.HTTPClient = &http.Client{Timeout: 30 * time.Second, Transport: c.transport}
	}
	for _, s := range cfg.Shards {
		ccfg := cfg.Client
		ccfg.BaseURL = s
		cl, err := serveclient.New(ccfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %s: %w", s, err)
		}
		c.clients[s] = cl
		c.sems[s] = make(chan struct{}, cfg.ShardConcurrency)
	}
	jobs := c.jobTier()
	c.robust, err = robust.NewManager(robust.ManagerConfig{
		Dir:  cfg.CampaignDir,
		Eval: jobs.CampaignEval,
		// Trials fan out across the whole cluster, so the per-campaign
		// bound scales with the fleet rather than one worker's pool.
		Parallelism: cfg.ShardConcurrency * len(cfg.Shards),
		Hooks: robust.Hooks{
			CampaignStarted: func() {
				c.metrics.robustCampaigns.Inc()
				c.metrics.robustActive.Add(1)
			},
			CampaignDone:  func(error) { c.metrics.robustActive.Add(-1) },
			TrialExecuted: func(robust.TrialResult) { c.metrics.robustTrials.Inc() },
			TrialResumed:  func(robust.TrialResult) { c.metrics.robustResumed.Inc() },
		},
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.opt, err = opt.NewManager(opt.ManagerConfig{
		Dir:  cfg.OptimizeDir,
		Eval: jobs.OptimizeEval,
		// Candidate evaluations fan out across the whole cluster, so the
		// per-search bound scales with the fleet rather than one worker's
		// pool.
		Parallelism: cfg.ShardConcurrency * len(cfg.Shards),
		Hooks: opt.Hooks{
			SearchStarted: func() {
				c.metrics.optSearches.Inc()
				c.metrics.optActive.Add(1)
			},
			SearchDone:    func(error) { c.metrics.optActive.Add(-1) },
			PointExecuted: func(opt.CandidateResult) { c.metrics.optPoints.Inc() },
			PointResumed:  func(opt.CandidateResult) { c.metrics.optResumed.Inc() },
		},
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.mux.Handle("POST /v1/evaluate", c.instrument(c.handleEvaluate))
	c.mux.Handle("POST /v1/sweep", c.instrument(c.handleSweep))
	jobs.Mount(c.mux, func(_ string, h http.HandlerFunc) http.Handler { return c.instrument(h) }, c.robust, c.opt)
	c.mux.Handle("GET /healthz", c.instrument(c.handleHealthz))
	c.mux.Handle("GET /metrics", c.instrument(c.handleMetrics))
	return c, nil
}

// Close cancels any running robustness campaigns and design-space
// searches and waits for them to unwind; their checkpoints survive for
// the next incarnation to resume.
func (c *Coordinator) Close() {
	c.robust.Close()
	c.opt.Close()
	if c.transport != nil {
		c.transport.CloseIdleConnections()
	}
}

// Handler returns the coordinator's HTTP handler (all routes).
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Ring exposes the placement ring (read-only) for tests and tooling.
func (c *Coordinator) Ring() *Ring { return c.ring }

// MetricsSnapshot returns the current counters — what GET /metrics serves.
func (c *Coordinator) MetricsSnapshot() Snapshot { return c.metrics.snapshot() }

// instrument tracks in-flight requests.
func (c *Coordinator) instrument(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.metrics.inFlight.Add(1)
		defer c.metrics.inFlight.Add(-1)
		h(w, r)
	})
}

// writeJSON sends v with the given status.
func (c *Coordinator) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // a failed write means the client is gone
}

// writeError sends the worker tier's structured error payload, mapping
// shard-reported StatusErrors back onto their original status so the
// coordinator is transparent to clients. A shard's refusal of the point
// (serveclient.Refusal) is relayed byte for byte: the client gets the
// answer the shard gave.
func (c *Coordinator) writeError(w http.ResponseWriter, err error) {
	if se, ok := serveclient.Refusal(err); ok && se.Body != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(se.Status)
		w.Write(se.Body) //nolint:errcheck // a failed write means the client is gone
		return
	}
	status := serve.StatusOf(err)
	var se *serveclient.StatusError
	if errors.As(err, &se) && se.Status >= 400 {
		status = se.Status
	}
	c.writeJSON(w, status, serve.ErrorResponse{Error: err.Error(), Status: status})
}

// decodeBody strictly parses the request body into v under the size cap.
func (c *Coordinator) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return err
		}
		return serve.BadRequest(fmt.Errorf("cluster: parsing request: %w", err))
	}
	return nil
}

// dispatch places one evaluate request on the ring by its design point
// (serve.RouteKey) and runs it through the hedged client chain: the
// owning shard first, then ring successors on failure or hedge expiry.
// It returns the winning shard's response body, undecoded.
func (c *Coordinator) dispatch(ctx context.Context, req serve.EvaluateRequest) ([]byte, error) {
	key, err := serve.RouteKey(req, c.cfg.Limits)
	if err != nil {
		return nil, err
	}
	return c.dispatchKeyed(ctx, req, key)
}

// dispatchKeyed is dispatch with the placement key supplied by the
// caller — robustness campaigns route each trial by its trial seed, so
// a fixed trial always lands on the same shard regardless of which
// process (or incarnation) dispatches it.
func (c *Coordinator) dispatchKeyed(ctx context.Context, req serve.EvaluateRequest, key string) ([]byte, error) {
	targets := c.ring.Successors(key, c.cfg.Attempts)
	primary := targets[0]
	clients := make([]*serveclient.Client, len(targets))
	for i, s := range targets {
		clients[i] = c.clients[s]
	}
	span := obs.StartSpan(obs.WithTrace(ctx, c.cfg.Trace), "cluster.dispatch")
	span.SetAttr("shard", primary)

	sem := c.sems[primary]
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		span.SetAttr("outcome", "canceled")
		span.End()
		return nil, fmt.Errorf("cluster: waiting for shard slot: %w", ctx.Err())
	}
	defer func() { <-sem }()

	c.metrics.points.Inc()
	sm := c.metrics.shard(primary)
	sm.routed.Inc()
	res, err := serveclient.EvaluateHedged(ctx, clients, c.cfg.HedgeDelay, req)
	if err != nil {
		c.metrics.pointErrs.Inc()
		span.SetAttr("outcome", "failed")
		span.End()
		c.logger.LogAttrs(ctx, slog.LevelWarn, "point failed",
			slog.String("shard", primary), slog.String("error", err.Error()))
		return nil, err
	}
	if res.Hedged {
		sm.hedges.Inc()
	}
	winner := targets[res.Target]
	if res.Target != 0 {
		sm.failovers.Inc()
	}
	span.SetAttr("winner", winner)
	span.SetAttr("attempts", res.Attempts)
	span.End()
	c.logger.LogAttrs(ctx, slog.LevelDebug, "point served",
		slog.String("shard", primary), slog.String("winner", winner),
		slog.Int("attempts", res.Attempts))
	return res.Body, nil
}

// handleEvaluate serves POST /v1/evaluate by relaying the owning shard's
// (or, after failover, a successor's) response body verbatim.
func (c *Coordinator) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req serve.EvaluateRequest
	if err := c.decodeBody(w, r, &req); err != nil {
		c.writeError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.SweepTimeout)
	defer cancel()
	body, err := c.dispatch(ctx, req)
	if err != nil {
		c.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // a failed write means the client is gone
}

// pointResult is one dispatched sweep point: the shard's body, or the
// error that stopped it.
type pointResult struct {
	index int
	body  []byte
	err   error
}

// decodeShardBody decodes a relayed /v1/evaluate body, for the two
// paths that need the report values: the buffered sweep and the job
// tier.
func decodeShardBody(body []byte, resp *serve.EvaluateResponse) error {
	if err := json.Unmarshal(body, resp); err != nil {
		return fmt.Errorf("cluster: decoding shard response: %w", err)
	}
	return nil
}

// handleSweep serves POST /v1/sweep: points scatter across the ring
// concurrently (per-shard concurrency bounded) and gather either into
// the buffered SweepResponse or, with Accept: application/x-ndjson, onto
// the streaming lane — the same wire contract the single-node service
// speaks, so clients cannot tell a coordinator from a worker.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req serve.SweepRequest
	if err := c.decodeBody(w, r, &req); err != nil {
		c.writeError(w, err)
		return
	}
	if len(req.Points) == 0 {
		c.writeError(w, serve.BadRequest(errors.New("cluster: sweep carries no Points")))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.SweepTimeout)
	defer cancel()

	results := make(chan pointResult, len(req.Points))
	for i := range req.Points {
		go func(i int) {
			body, err := c.dispatch(ctx, req.Points[i])
			results <- pointResult{index: i, body: body, err: err}
		}(i)
	}

	if serve.WantsNDJSON(r) {
		c.streamSweep(w, len(req.Points), results)
		return
	}
	resp := serve.SweepResponse{Points: make([]serve.SweepPointResult, len(req.Points))}
	for range req.Points {
		res := <-results
		p := &resp.Points[res.index]
		if res.err == nil {
			res.err = decodeShardBody(res.body, &p.EvaluateResponse)
		}
		if res.err != nil {
			*p = serve.SweepPointResult{Error: pointError(res.err)}
		}
	}
	c.writeJSON(w, http.StatusOK, resp)
}

// streamSweep writes the NDJSON lane, one flushed line per completed
// point. A served point's line is the shard's body compacted behind
// {"Index":i, — exactly the line the shard itself would stream, built
// without decoding or re-encoding a single float. A failed point's line
// carries only its Error.
func (c *Coordinator) streamSweep(w http.ResponseWriter, n int, results <-chan pointResult) {
	w.Header().Set("Content-Type", serve.NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	var line, body bytes.Buffer
	for i := 0; i < n; i++ {
		res := <-results
		line.Reset()
		if res.err == nil {
			body.Reset()
			if err := json.Compact(&body, res.body); err != nil || body.Len() < 3 || body.Bytes()[0] != '{' {
				res.err = fmt.Errorf("cluster: shard answered a body that is not a JSON object: %.64q", res.body)
			}
		}
		if res.err == nil {
			line.WriteString(`{"Index":`)
			line.Write(strconv.AppendInt(line.AvailableBuffer(), int64(res.index), 10))
			line.WriteByte(',')
			line.Write(body.Bytes()[1:])
			line.WriteByte('\n')
		} else {
			errLine := serve.SweepStreamLine{Index: res.index}
			errLine.Error = pointError(res.err)
			json.NewEncoder(&line).Encode(errLine) //nolint:errcheck // a bytes.Buffer never fails
		}
		if _, err := w.Write(line.Bytes()); err != nil {
			return
		}
		c.metrics.stream.Inc()
		rc.Flush() //nolint:errcheck // an unflushable writer just buffers
	}
}

// pointError is a failed sweep point's inline Error. A shard's refusal
// of the point carries the shard's own message, the one a worker's
// sweep writes for that point; any other failure its whole error.
func pointError(err error) string {
	if se, ok := serveclient.Refusal(err); ok {
		return se.Message
	}
	return err.Error()
}

// HealthResponse is the coordinator's /healthz payload.
type HealthResponse struct {
	// Status is "ok" whenever the coordinator itself is up — shard
	// failures degrade service but do not fail liveness.
	Status string
	// Shards is the ring member count.
	Shards int
}

// handleHealthz serves GET /healthz.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Shards: len(c.cfg.Shards)})
}

// handleMetrics serves GET /metrics: JSON by default, Prometheus text
// with ?format=prometheus — mirroring the worker tier.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.metrics.writePrometheus(w) //nolint:errcheck // a failed write means the scraper is gone
		return
	}
	c.writeJSON(w, http.StatusOK, c.MetricsSnapshot())
}

// ListenAndServe runs the coordinator on addr until ctx is canceled,
// then drains in-flight requests — the same lifecycle contract as
// serve.ListenAndServe. It announces the bound address on out, so addr
// may use port 0 in tests.
func ListenAndServe(ctx context.Context, cfg Config, addr string, out io.Writer) error {
	c, err := New(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	fmt.Fprintf(out, "refocus-serve coordinating %s shards on http://%s\n",
		strconv.Itoa(len(cfg.Shards)), ln.Addr())
	hs := &http.Server{
		Handler:           c.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("cluster: %w", err)
	case <-ctx.Done():
		drain, cancel := context.WithTimeout(context.Background(), c.cfg.SweepTimeout+time.Second)
		defer cancel()
		if err := hs.Shutdown(drain); err != nil {
			return fmt.Errorf("cluster: shutdown: %w", err)
		}
		fmt.Fprintln(out, "refocus-serve coordinator drained and stopped")
		return nil
	}
}
