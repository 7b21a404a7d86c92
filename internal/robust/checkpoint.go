package robust

import (
	"fmt"
	"os"
	"path/filepath"

	"refocus/internal/job"
)

// TrialResult is one completed Monte Carlo trial — the checkpoint's unit
// of durability and the frontier's raw material. Every field derives
// deterministically from (Spec, Severity, Trial), so a resumed campaign
// reproduces missing trials bit-for-bit.
type TrialResult struct {
	// Severity indexes Spec.Severities; Trial indexes [0, Spec.Trials).
	Severity int
	Trial    int
	// Seed is TrialSeed(spec.Seed, Severity, Trial), recorded so a trial
	// can be replayed standalone.
	Seed int64
	// Failed marks a hard chip failure (faults.ErrNothingRuns): no
	// compute path survives, so the trial counts against yield and is
	// excluded from the throughput and accuracy distributions.
	Failed bool `json:",omitempty"`
	// FPS and Energy are the degraded machine's geomean throughput and
	// energy per inference across the spec's networks (zero when Failed).
	FPS    float64 `json:",omitempty"`
	Energy float64 `json:",omitempty"`
	// HealthyRFCUs, EffectiveLambda and EffectiveReuses summarize the
	// fault remapping (the Degradation record's load-bearing fields).
	HealthyRFCUs    int `json:",omitempty"`
	EffectiveLambda int `json:",omitempty"`
	EffectiveReuses int `json:",omitempty"`
	// Accuracy is the clean-trained reference net's accuracy on this
	// trial's device datapath (zero when Failed).
	Accuracy float64 `json:",omitempty"`
	// RetrainedAccuracy is the accuracy after retraining through the
	// device model; present only on Retrain campaigns.
	RetrainedAccuracy *float64 `json:",omitempty"`
}

// Checkpoint is the durable campaign state: the defaulted spec, every
// completed trial, and — once the campaign finishes — the final
// frontier. On disk it is a job journal (package job): a header line,
// one appended line per completed trial, and a last line carrying the
// frontier and the two baselines, whose presence marks the campaign
// done. A torn final line (an append a SIGKILL interrupted) is dropped
// on load; any other damage is refused. Marshaled whole, a Checkpoint is
// the version-1 snapshot format, which LoadCheckpoint still reads and a
// resume migrates.
type Checkpoint struct {
	// Version is the schema version of the file read (job.Version, or 1
	// for a snapshot awaiting migration).
	Version int
	// ID is the campaign identity the file belongs to; a loader rejects
	// a mismatch rather than resuming someone else's trials.
	ID string
	// Spec is the defaulted campaign spec.
	Spec Spec
	// Done lists completed trials sorted by (Severity, Trial).
	Done []TrialResult
	// NominalFPS and CleanAccuracy are the campaign-level baselines,
	// present once the campaign finished.
	NominalFPS    float64 `json:",omitempty"`
	CleanAccuracy float64 `json:",omitempty"`
	// Frontier is the final per-severity frontier; non-nil only when the
	// campaign ran to completion (its presence is how a status probe
	// tells "done" from "interrupted").
	Frontier []FrontierPoint `json:",omitempty"`
}

// campaignEnd is a campaign journal's final line.
type campaignEnd struct {
	NominalFPS    float64
	CleanAccuracy float64
	Frontier      []FrontierPoint
}

// trialCell addresses a record in the journal.
func trialCell(t TrialResult) [2]int { return [2]int{t.Severity, t.Trial} }

// CheckpointPath names a campaign's checkpoint file inside dir.
func CheckpointPath(dir, id string) string {
	return filepath.Join(dir, "campaign-"+id+".json")
}

// LoadCheckpoint reads and validates a checkpoint file. A missing file
// returns an error satisfying errors.Is(err, os.ErrNotExist) — the
// normal first-run case callers test for.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp, err := parseCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("robust: checkpoint %s: %w", path, err)
	}
	return cp, nil
}

// parseCheckpoint decodes and validates checkpoint file contents.
func parseCheckpoint(data []byte) (*Checkpoint, error) {
	l, err := job.Parse[Spec, TrialResult, campaignEnd](data, trialCell)
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{Version: l.Version, ID: l.ID, Spec: l.Spec, Done: l.Recs}
	if e := l.End; e != nil {
		cp.NominalFPS, cp.CleanAccuracy, cp.Frontier = e.NominalFPS, e.CleanAccuracy, e.Frontier
	}
	return cp, nil
}
