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
	Evaluate func(ctx context.Context, req EvaluateRequest, routeKey string) (EvaluateResponse, error)
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

// CampaignEval is the robust.TrialEval backing the tier's campaigns:
// each trial's degraded design point becomes an ordinary evaluate
// request.
func (t *JobTier) CampaignEval(ctx context.Context, spec robust.Spec, fs faults.FaultSet, routeKey string) (robust.TrialMetrics, error) {
	req := EvaluateRequest{
		Preset:  spec.Preset,
		Config:  spec.Config,
		Network: spec.Network,
	}
	if !fs.IsZero() {
		data, err := json.Marshal(fs.Canonical())
		if err != nil {
			return robust.TrialMetrics{}, err
		}
		req.Faults = data
	}
	resp, err := t.evaluate(ctx, req, routeKey, "campaign trial")
	if err != nil {
		return robust.TrialMetrics{}, err
	}
	return robust.TrialMetricsFromReports(resp.Reports), nil
}

// OptimizeEval is the opt.PointEval backing the tier's searches: each
// candidate becomes an ordinary evaluate request, so a candidate any
// search or plain request already visited is a cache hit.
func (t *JobTier) OptimizeEval(ctx context.Context, spec opt.Spec, cfg arch.SystemConfig, routeKey string) (opt.PointMetrics, error) {
	data, err := arch.ConfigJSON(cfg)
	if err != nil {
		return opt.PointMetrics{}, err
	}
	resp, err := t.evaluate(ctx, EvaluateRequest{Config: data, Network: spec.Network}, routeKey, "optimizer point")
	if err != nil {
		return opt.PointMetrics{}, err
	}
	return opt.PointMetricsFromReports(resp.Reports), nil
}

// evaluate runs req for a long-running job. An evaluation the tier
// sheds waits out the suggested delay and tries again instead of failing
// the job: shedding protects request latency, and job work is the
// definition of deferrable.
func (t *JobTier) evaluate(ctx context.Context, req EvaluateRequest, routeKey, what string) (EvaluateResponse, error) {
	for {
		resp, err := t.Evaluate(ctx, req, routeKey)
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
