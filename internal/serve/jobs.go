package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"refocus/internal/arch"
	"refocus/internal/faults"
	"refocus/internal/job"
	"refocus/internal/opt"
	"refocus/internal/robust"
	"refocus/internal/sim"
)

// JobTier mounts the long-running job kinds (robustness campaigns,
// design-space searches) on a serving tier — a worker or a coordinator —
// from what that tier lends it: how it reads a request and writes a
// reply, and how it evaluates one design point.
type JobTier struct {
	// Name prefixes the tier's own error messages ("serve", "cluster").
	Name       string
	DecodeBody func(http.ResponseWriter, *http.Request, any) error
	WriteJSON  func(http.ResponseWriter, int, any)
	WriteError func(http.ResponseWriter, error)
	// StreamLine counts one streamed NDJSON progress line.
	StreamLine func()
	// Evaluate runs one job evaluation; routeKey places it on a tier
	// that shards its work.
	Evaluate func(ctx context.Context, p JobPoint, routeKey string) (EvaluateResponse, error)
	// Shed reports whether err means the tier shed the evaluation, and
	// how long to wait before trying it again.
	Shed func(err error) (wait time.Duration, shed bool)
}

// Mount registers POST and GET-by-ID routes for both job kinds on mux,
// each wrapped by the tier's instrument under its metrics label (the
// labels avoid the path patterns' braces — they collide with the
// Prometheus exposition's label syntax).
func (t *JobTier) Mount(mux *http.ServeMux, instrument func(label string, h http.HandlerFunc) http.Handler, campaigns *robust.Manager, searches *opt.Manager) {
	mux.Handle("POST /v1/robustness", instrument("/v1/robustness", func(w http.ResponseWriter, r *http.Request) {
		startJob(t, w, r, campaigns.Start, (*robust.Job).Status, robust.StreamUpdates)
	}))
	mux.Handle("GET /v1/robustness/{id}", instrument("/v1/robustness/status", func(w http.ResponseWriter, r *http.Request) {
		jobStatus(t, w, r, "campaign", campaigns.Get, (*robust.Job).Status, campaigns.StatusFromDisk)
	}))
	mux.Handle("POST /v1/optimize", instrument("/v1/optimize", func(w http.ResponseWriter, r *http.Request) {
		startJob(t, w, r, searches.Start, (*opt.Job).Status, opt.StreamUpdates)
	}))
	mux.Handle("GET /v1/optimize/{id}", instrument("/v1/optimize/status", func(w http.ResponseWriter, r *http.Request) {
		jobStatus(t, w, r, "search", searches.Get, (*opt.Job).Status, searches.StatusFromDisk)
	}))
}

// JobPoint is one evaluation a job asks its tier for: the point, already
// resolved — a worker evaluates it as it is, through its cache and
// admission path — and how the job's spec names it, for a tier that
// sends it to a shard as an evaluate request (see Request).
type JobPoint struct {
	Point sim.Point
	// Base is the wire naming of the point's design and workload:
	// Preset or Config, and Network. An empty Preset and Config name the
	// design by Point.Config itself.
	Base EvaluateRequest
}

// Request encodes the point as the evaluate request a shard resolves
// back to it: Base, with the config in the -config-file schema when
// Base names none, and the canonical fault set when the point carries
// one.
func (p JobPoint) Request() (EvaluateRequest, error) {
	req := p.Base
	if req.Preset == "" && len(req.Config) == 0 {
		data, err := arch.ConfigJSON(p.Point.Config)
		if err != nil {
			return EvaluateRequest{}, err
		}
		req.Config = data
	}
	if p.Point.Faults != nil {
		data, err := json.Marshal(p.Point.Faults.Canonical())
		if err != nil {
			return EvaluateRequest{}, err
		}
		req.Faults = data
	}
	return req, nil
}

// CampaignEval is the robust.TrialEval backing the tier's campaigns:
// each trial is the campaign's point — config and workload resolved once,
// when the campaign started — degraded by the trial's fault set.
func (t *JobTier) CampaignEval(ctx context.Context, spec robust.Spec, fs faults.FaultSet, routeKey string) (robust.TrialMetrics, error) {
	p, err := spec.Resolve()
	if err != nil {
		return robust.TrialMetrics{}, err
	}
	if !fs.IsZero() {
		if err := fs.Validate(p.Config); err != nil {
			return robust.TrialMetrics{}, err
		}
		canon := fs.Canonical()
		p.Faults = &canon
	}
	base := EvaluateRequest{Preset: spec.Preset, Config: spec.Config, Network: spec.Network}
	resp, err := t.evaluate(ctx, JobPoint{Point: p, Base: base}, routeKey, "campaign trial")
	if err != nil {
		return robust.TrialMetrics{}, err
	}
	return robust.TrialMetricsFromReports(resp.Reports), nil
}

// OptimizeEval is the opt.PointEval backing the tier's searches: each
// candidate is the search's workload, resolved once when the search
// started, at the candidate's design point and the config hash the
// runner already computed (the route key). A candidate any search or
// plain request already visited is a cache hit.
func (t *JobTier) OptimizeEval(ctx context.Context, spec opt.Spec, cfg arch.SystemConfig, configHash string) (opt.PointMetrics, error) {
	p, err := spec.Resolve()
	if err != nil {
		return opt.PointMetrics{}, err
	}
	p.Config, p.ConfigHash = cfg, configHash
	resp, err := t.evaluate(ctx, JobPoint{Point: p, Base: EvaluateRequest{Network: spec.Network}}, configHash, "optimizer point")
	if err != nil {
		return opt.PointMetrics{}, err
	}
	return opt.PointMetricsFromReports(resp.Reports), nil
}

// evaluate runs p for a long-running job. An evaluation the tier sheds
// waits out the suggested delay and tries again instead of failing the
// job: shedding protects request latency, and job work is the
// definition of deferrable.
func (t *JobTier) evaluate(ctx context.Context, p JobPoint, routeKey, what string) (EvaluateResponse, error) {
	for {
		resp, err := t.Evaluate(ctx, p, routeKey)
		wait, shed := t.Shed(err)
		if err == nil || !shed {
			return resp, err
		}
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return EvaluateResponse{}, fmt.Errorf("%s: %s canceled during backoff: %w", t.Name, what, ctx.Err())
		}
	}
}

// startJob serves a job kind's POST: validate the spec, start (or attach
// to) its job, and either answer with the job's status — 202 for a newly
// created job, 200 when attaching to one already running — or, for
// NDJSON requests, stream incumbent updates until the job finishes. A
// spec whose checkpoint survives on disk resumes it: finished cells load
// from the journal and only the missing ones run.
func startJob[S, J, St any](t *JobTier, w http.ResponseWriter, r *http.Request, start func(S) (J, bool, error), status func(J) St, stream func(http.ResponseWriter, *http.Request, J, func())) {
	var spec S
	if err := t.DecodeBody(w, r, &spec); err != nil {
		t.WriteError(w, err)
		return
	}
	j, created, err := start(spec)
	if err != nil {
		if errors.Is(err, job.ErrBusy) {
			w.Header().Set("Retry-After", "5")
			err = &apiError{status: http.StatusTooManyRequests, err: err}
		} else {
			err = BadRequest(err)
		}
		t.WriteError(w, err)
		return
	}
	if WantsNDJSON(r) {
		stream(w, r, j, t.StreamLine)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusAccepted
	}
	t.WriteJSON(w, code, status(j))
}

// jobStatus serves a job kind's GET /{id}: the live job's status when it
// runs in this process, otherwise the checkpoint's view — "done" with the
// final result, or "interrupted" for a job a dead process left behind
// (resubmit its spec to resume).
func jobStatus[J, St any](t *JobTier, w http.ResponseWriter, r *http.Request, noun string, get func(string) (J, bool), status func(J) St, fromDisk func(string) (St, error)) {
	id := r.PathValue("id")
	if j, ok := get(id); ok {
		t.WriteJSON(w, http.StatusOK, status(j))
		return
	}
	st, err := fromDisk(id)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			err = &apiError{status: http.StatusNotFound, err: fmt.Errorf("%s: no %s %q", t.Name, noun, id)}
		}
		t.WriteError(w, err)
		return
	}
	t.WriteJSON(w, http.StatusOK, st)
}
