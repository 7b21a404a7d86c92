package robust

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
// of concurrent campaigns; the serving tier maps it to 429 with a
// Retry-After, mirroring worker-slot shedding.
var ErrBusy = job.ErrBusy

// Status is a campaign lifecycle state as reported by StatusResponse.
type Status string

// Campaign lifecycle states. StatusInterrupted is only ever reported
// from disk: a checkpoint exists but no live job does, i.e. the process
// died mid-campaign and re-submitting the spec will resume it.
const (
	StatusRunning     Status = "running"
	StatusDone        Status = "done"
	StatusFailed      Status = "failed"
	StatusInterrupted Status = "interrupted"
)

// StatusResponse is the wire form of a campaign's state, served by
// GET /v1/robustness/{id} and embedded in the final stream line.
type StatusResponse struct {
	// ID is the campaign identity; Name the spec's optional label.
	ID   string `json:",omitempty"`
	Name string `json:",omitempty"`
	// Status is the lifecycle state.
	Status Status
	// TotalTrials is the campaign budget (severities × trials);
	// CompletedTrials how many are finished, split into ExecutedTrials
	// (computed by a live process) and ResumedTrials (recovered from the
	// checkpoint). FailedChips counts hard manufacturing failures among
	// the completed trials.
	TotalTrials     int
	CompletedTrials int
	ExecutedTrials  int
	ResumedTrials   int
	FailedChips     int
	// NominalFPS and CleanAccuracy are the campaign baselines, present
	// once known.
	NominalFPS    float64 `json:",omitempty"`
	CleanAccuracy float64 `json:",omitempty"`
	// Frontier is the accuracy/yield/throughput frontier: final on done
	// campaigns, incumbent (observed-so-far) while running.
	Frontier []FrontierPoint `json:",omitempty"`
	// Error explains a failed campaign.
	Error string `json:",omitempty"`
}

// ManagerConfig configures a Manager.
type ManagerConfig struct {
	// Dir is the checkpoint directory; "" runs campaigns without
	// durability (they cannot survive a restart).
	Dir string
	// Eval evaluates trials (required).
	Eval TrialEval
	// Parallelism bounds concurrent trials per campaign; <1 defaults
	// to 2.
	Parallelism int
	// MaxActive bounds concurrently running campaigns; <1 defaults to 4.
	MaxActive int
	// Hooks observes campaign and trial events (metrics counters).
	Hooks Hooks
}

// Manager owns campaign jobs for a serving process: it starts them,
// deduplicates re-submissions by campaign identity, exposes status for
// live and on-disk campaigns, and cancels everything on Close.
type Manager struct {
	cfg  ManagerConfig
	jobs *job.Manager[*Job]
}

// NewManager builds a Manager, creating the checkpoint directory if
// configured.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Eval == nil {
		return nil, errors.New("robust: ManagerConfig.Eval is required")
	}
	if cfg.MaxActive < 1 {
		cfg.MaxActive = 4
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("robust: campaign dir: %w", err)
		}
	}
	return &Manager{cfg: cfg, jobs: job.NewManager[*Job](cfg.MaxActive, "robust", "campaigns")}, nil
}

// Start launches a campaign for spec, or attaches to the already-running
// job with the same identity (created reports which). A spec whose
// checkpoint exists on disk resumes from it. Returns ErrBusy when
// MaxActive campaigns are already running.
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

// Get returns the live job with the given campaign ID, if any.
func (m *Manager) Get(id string) (*Job, bool) { return m.jobs.Get(id) }

// StatusFromDisk reads a campaign's checkpoint and reports it as "done"
// (frontier present) or "interrupted" (partial — resubmitting the spec
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
		Status:          StatusInterrupted,
		TotalTrials:     len(cp.Spec.Severities) * cp.Spec.Trials,
		CompletedTrials: len(cp.Done),
		ResumedTrials:   len(cp.Done),
	}
	for _, t := range cp.Done {
		if t.Failed {
			st.FailedChips++
		}
	}
	if cp.Frontier != nil {
		st.Status = StatusDone
		st.Frontier = cp.Frontier
		st.NominalFPS = cp.NominalFPS
		st.CleanAccuracy = cp.CleanAccuracy
	}
	return st, nil
}

// Close cancels every running campaign and waits for them to unwind.
// Their checkpoints survive, so a restarted process resumes them.
func (m *Manager) Close() { m.jobs.Close() }

// run executes one campaign job to completion.
func (m *Manager) run(ctx context.Context, j *Job) {
	if h := m.cfg.Hooks.CampaignStarted; h != nil {
		h()
	}
	r := &Runner{
		Spec:        j.spec,
		ID:          j.id,
		Dir:         m.cfg.Dir,
		Eval:        m.cfg.Eval,
		Parallelism: m.cfg.Parallelism,
		Hooks: Hooks{
			TrialExecuted: func(t TrialResult) {
				j.recordTrial(t, false)
				if h := m.cfg.Hooks.TrialExecuted; h != nil {
					h(t)
				}
			},
			TrialResumed: func(t TrialResult) {
				j.recordTrial(t, true)
				if h := m.cfg.Hooks.TrialResumed; h != nil {
					h(t)
				}
			},
		},
		OnUpdate: j.publish,
	}
	res, err := r.Run(ctx)
	j.finish(res, err)
	if h := m.cfg.Hooks.CampaignDone; h != nil {
		h(err)
	}
}

// Job is one live campaign: its mutable progress state plus a broadcast
// feed for NDJSON streaming.
type Job struct {
	id   string
	spec Spec
	feed *job.Feed[Update]

	mu       sync.Mutex
	executed int
	resumed  int
	failed   int
	// incumbents holds the freshest frontier point per severity index.
	incumbents map[int]*FrontierPoint
	result     *Result
	errText    string
}

func newJob(id string, spec Spec) *Job {
	return &Job{id: id, spec: spec, feed: job.NewFeed[Update](), incumbents: make(map[int]*FrontierPoint)}
}

// ID returns the campaign identity.
func (j *Job) ID() string { return j.id }

// Done is closed when the campaign finishes (any outcome).
func (j *Job) Done() <-chan struct{} { return j.feed.Done() }

// Finished reports whether the campaign has finished.
func (j *Job) Finished() bool { return j.feed.Finished() }

// Subscribe returns a channel of progress updates and a cancel func the
// caller must invoke when done. The channel is closed when the campaign
// finishes (immediately, if it already has); intermediate updates are
// dropped rather than blocking the campaign when the subscriber lags.
func (j *Job) Subscribe() (<-chan Update, func()) { return j.feed.Subscribe() }

// recordTrial updates progress counters for one completed trial.
func (j *Job) recordTrial(t TrialResult, viaResume bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if viaResume {
		j.resumed++
	} else {
		j.executed++
	}
	if t.Failed {
		j.failed++
	}
}

// publish records the incumbent and broadcasts u to subscribers.
func (j *Job) publish(u Update) {
	if u.Incumbent != nil {
		j.mu.Lock()
		j.incumbents[u.Incumbent.SeverityIndex] = u.Incumbent
		j.mu.Unlock()
	}
	j.feed.Publish(u)
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

// Status reports the job's current state, including incumbent frontier
// points for severities with at least one completed trial.
func (j *Job) Status() StatusResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := StatusResponse{
		ID:              j.id,
		Name:            j.spec.Name,
		Status:          StatusRunning,
		TotalTrials:     len(j.spec.Severities) * j.spec.Trials,
		CompletedTrials: j.executed + j.resumed,
		ExecutedTrials:  j.executed,
		ResumedTrials:   j.resumed,
		FailedChips:     j.failed,
		Error:           j.errText,
	}
	if j.Finished() {
		if j.result != nil {
			st.Status = StatusDone
			st.Frontier = j.result.Frontier
			st.NominalFPS = j.result.NominalFPS
			st.CleanAccuracy = j.result.CleanAccuracy
		} else {
			st.Status = StatusFailed
		}
		return st
	}
	for s := range j.spec.Severities {
		if p := j.incumbents[s]; p != nil {
			st.Frontier = append(st.Frontier, *p)
		}
	}
	return st
}

// NDJSONContentType is the newline-delimited JSON media type the
// incumbent stream is served with.
const NDJSONContentType = job.NDJSONContentType

// StreamUpdates writes a campaign's progress to w as NDJSON: one Update
// line per completed trial (lagging readers skip intermediates rather
// than stalling the campaign), then a final line whose Status carries
// the terminal state. onLine, if non-nil, is called after each line
// (stream metrics). Blocks until the campaign finishes or the client
// disconnects.
func StreamUpdates(w http.ResponseWriter, r *http.Request, j *Job, onLine func()) {
	updates, cancel := j.Subscribe()
	defer cancel()
	job.Stream(w, r, updates, func() Update {
		st := j.Status()
		final := Update{Type: "failed", Completed: st.CompletedTrials, Total: st.TotalTrials, Status: &st}
		if st.Status == StatusDone {
			final.Type = "done"
		}
		return final
	}, onLine)
}
