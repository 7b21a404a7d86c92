package opt

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"

	"refocus/internal/job"
)

// ErrBusy reports that the manager is already running its maximum number
// of concurrent searches; the serving tier maps it to 429 with a
// Retry-After, mirroring worker-slot shedding.
var ErrBusy = job.ErrBusy

// Status is a search lifecycle state as reported by StatusResponse.
type Status string

// Search lifecycle states. StatusInterrupted is only ever reported from
// disk: a checkpoint exists but no live job does, i.e. the process died
// mid-search and re-submitting the spec will resume it.
const (
	StatusRunning     Status = "running"
	StatusDone        Status = "done"
	StatusFailed      Status = "failed"
	StatusInterrupted Status = "interrupted"
)

// StatusResponse is the wire form of a search's state, served by
// GET /v1/optimize/{id} and embedded in the final stream line.
type StatusResponse struct {
	// ID is the search identity; Name the spec's optional label.
	ID   string `json:",omitempty"`
	Name string `json:",omitempty"`
	// Strategy is the spec's search strategy.
	Strategy string `json:",omitempty"`
	// Status is the lifecycle state.
	Status Status
	// TotalPoints is the budget bound (generations × population);
	// CompletedPoints how many candidates are evaluated — below the
	// bound for strategies that deliberately spend less (successive
	// halving) — split into ExecutedPoints (computed by a live process)
	// and ResumedPoints (recovered from the checkpoint).
	TotalPoints     int
	CompletedPoints int
	ExecutedPoints  int
	ResumedPoints   int
	// InvalidPoints counts candidates the architecture model rejected;
	// InfeasiblePoints the evaluated ones that broke the budgets.
	InvalidPoints    int
	InfeasiblePoints int
	// Front is the Pareto front: final on done searches, incumbent
	// (over the candidates evaluated so far) while running.
	Front []FrontPoint `json:",omitempty"`
	// Error explains a failed search.
	Error string `json:",omitempty"`
}

// ManagerConfig configures a Manager.
type ManagerConfig struct {
	// Dir is the checkpoint directory; "" runs searches without
	// durability (they cannot survive a restart).
	Dir string
	// Eval evaluates candidate design points (required).
	Eval PointEval
	// Parallelism bounds concurrent evaluations per search; <1 defaults
	// to 2.
	Parallelism int
	// MaxActive bounds concurrently running searches; <1 defaults to 2.
	MaxActive int
	// Hooks observes search and point events (metrics counters).
	Hooks Hooks
}

// Manager owns search jobs for a serving process: it starts them,
// deduplicates re-submissions by search identity, exposes status for
// live and on-disk searches, and cancels everything on Close.
type Manager struct {
	cfg  ManagerConfig
	jobs *job.Manager[*Job]
}

// NewManager builds a Manager, creating the checkpoint directory if
// configured.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Eval == nil {
		return nil, errors.New("opt: ManagerConfig.Eval is required")
	}
	if cfg.MaxActive < 1 {
		cfg.MaxActive = 2
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("opt: search dir: %w", err)
		}
	}
	return &Manager{cfg: cfg, jobs: job.NewManager[*Job](cfg.MaxActive, "opt", "searches")}, nil
}

// Start launches a search for spec, or attaches to the already-running
// job with the same identity (created reports which). A spec whose
// checkpoint exists on disk resumes from it. Returns ErrBusy when
// MaxActive searches are already running.
func (m *Manager) Start(spec Spec) (j *Job, created bool, err error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	if spec, err = spec.withResolved(); err != nil {
		return nil, false, err
	}
	id, err := spec.ID()
	if err != nil {
		return nil, false, err
	}
	return m.jobs.Start(id, func() *Job { return newJob(id, spec) }, m.run)
}

// Get returns the live job with the given search ID, if any.
func (m *Manager) Get(id string) (*Job, bool) { return m.jobs.Get(id) }

// StatusFromDisk reads a search's checkpoint and reports it as "done"
// (front present) or "interrupted" (partial — resubmitting the spec
// resumes it). A missing checkpoint returns an error satisfying
// errors.Is(err, os.ErrNotExist).
func (m *Manager) StatusFromDisk(id string) (StatusResponse, error) {
	if m.cfg.Dir == "" {
		return StatusResponse{}, os.ErrNotExist
	}
	cp, err := LoadCheckpoint(CheckpointPath(m.cfg.Dir, id))
	if err != nil {
		return StatusResponse{}, err
	}
	st := StatusResponse{
		ID:              cp.ID,
		Name:            cp.Spec.Name,
		Strategy:        cp.Spec.Strategy,
		Status:          StatusInterrupted,
		TotalPoints:     cp.Spec.Generations * cp.Spec.Population,
		CompletedPoints: len(cp.Done),
		ResumedPoints:   len(cp.Done),
	}
	for _, c := range cp.Done {
		switch {
		case c.Invalid:
			st.InvalidPoints++
		case !c.Feasible:
			st.InfeasiblePoints++
		}
	}
	if cp.Front != nil {
		st.Status = StatusDone
		st.Front = cp.Front
	}
	return st, nil
}

// Close cancels every running search and waits for them to unwind.
// Their checkpoints survive, so a restarted process resumes them.
func (m *Manager) Close() { m.jobs.Close() }

// run executes one search job to completion.
func (m *Manager) run(ctx context.Context, j *Job) {
	if h := m.cfg.Hooks.SearchStarted; h != nil {
		h()
	}
	r := &Runner{
		Spec:        j.spec,
		ID:          j.id,
		Dir:         m.cfg.Dir,
		Eval:        m.cfg.Eval,
		Parallelism: m.cfg.Parallelism,
		Hooks: Hooks{
			PointExecuted: func(c CandidateResult) {
				j.recordPoint(c, false)
				if h := m.cfg.Hooks.PointExecuted; h != nil {
					h(c)
				}
			},
			PointResumed: func(c CandidateResult) {
				j.recordPoint(c, true)
				if h := m.cfg.Hooks.PointResumed; h != nil {
					h(c)
				}
			},
		},
		OnUpdate: j.feed.Publish,
	}
	res, err := r.Run(ctx)
	j.finish(res, err)
	if h := m.cfg.Hooks.SearchDone; h != nil {
		h(err)
	}
}

// Job is one live search: its mutable progress state plus a broadcast
// feed for NDJSON streaming.
type Job struct {
	id   string
	spec Spec
	feed *job.Feed[Update]

	mu       sync.Mutex
	executed int
	resumed  int
	// records accumulates every evaluated candidate so the incumbent
	// front can be computed on demand while the search runs.
	records map[cell]CandidateResult
	result  *Result
	errText string
}

func newJob(id string, spec Spec) *Job {
	return &Job{id: id, spec: spec, feed: job.NewFeed[Update](), records: make(map[cell]CandidateResult)}
}

// ID returns the search identity.
func (j *Job) ID() string { return j.id }

// Done is closed when the search finishes (any outcome).
func (j *Job) Done() <-chan struct{} { return j.feed.Done() }

// Finished reports whether the search has finished.
func (j *Job) Finished() bool { return j.feed.Finished() }

// Subscribe returns a channel of progress updates and a cancel func the
// caller must invoke when done. The channel is closed when the search
// finishes (immediately, if it already has); intermediate updates are
// dropped rather than blocking the search when the subscriber lags.
func (j *Job) Subscribe() (<-chan Update, func()) { return j.feed.Subscribe() }

// recordPoint updates progress state for one evaluated candidate.
func (j *Job) recordPoint(c CandidateResult, viaResume bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if viaResume {
		j.resumed++
	} else {
		j.executed++
	}
	j.records[cell{c.Gen, c.Index}] = c
}

// finish records the terminal state and wakes everyone waiting.
func (j *Job) finish(res *Result, err error) {
	j.mu.Lock()
	j.result = res
	if err != nil {
		j.errText = err.Error()
	}
	j.mu.Unlock()
	j.feed.Close()
}

// Status reports the job's current state, including the incumbent front
// over the candidates evaluated so far.
func (j *Job) Status() StatusResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := StatusResponse{
		ID:              j.id,
		Name:            j.spec.Name,
		Strategy:        j.spec.Strategy,
		Status:          StatusRunning,
		TotalPoints:     j.spec.Generations * j.spec.Population,
		CompletedPoints: j.executed + j.resumed,
		ExecutedPoints:  j.executed,
		ResumedPoints:   j.resumed,
		Error:           j.errText,
	}
	for _, c := range j.records {
		switch {
		case c.Invalid:
			st.InvalidPoints++
		case !c.Feasible:
			st.InfeasiblePoints++
		}
	}
	if j.Finished() {
		if j.result != nil {
			st.Status = StatusDone
			st.Front = j.result.Front
		} else {
			st.Status = StatusFailed
		}
		return st
	}
	if front := computeFront(j.spec, j.records); len(front) > 0 {
		st.Front = front
	}
	return st
}

// NDJSONContentType is the newline-delimited JSON media type the
// incumbent stream is served with.
const NDJSONContentType = job.NDJSONContentType

// StreamUpdates writes a search's progress to w as NDJSON: one Update
// line per evaluated candidate (lagging readers skip intermediates
// rather than stalling the search), then a final line whose Status
// carries the terminal state. onLine, if non-nil, is called after each
// line (stream metrics). Blocks until the search finishes or the client
// disconnects.
func StreamUpdates(w http.ResponseWriter, r *http.Request, j *Job, onLine func()) {
	updates, cancel := j.Subscribe()
	defer cancel()
	job.Stream(w, r, updates, func() Update {
		st := j.Status()
		final := Update{Type: "failed", Completed: st.CompletedPoints, Total: st.TotalPoints, Status: &st}
		if st.Status == StatusDone {
			final.Type = "done"
		}
		return final
	}, onLine)
}
