package opt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"refocus/internal/job"
)

// CandidateResult is one evaluated design point — the checkpoint's unit
// of durability and the front's raw material. Every field derives
// deterministically from (Spec, Gen, Index), so a resumed search
// reproduces missing candidates bit-for-bit.
type CandidateResult struct {
	// Gen and Index address the candidate's cell in the search schedule:
	// Gen is the proposal round, Index the slot within it.
	Gen   int
	Index int
	// Candidate is the proposed point as axis indices into the space.
	Candidate Candidate
	// Seed is CandidateSeed(spec.Seed, Gen, Index), driving the
	// candidate's yield sweep when the search samples one.
	Seed int64
	// M, NRFCU, NLambda and Reuses are the resolved axis values.
	M       int
	NRFCU   int
	NLambda int
	Reuses  int
	// Config names the materialized design point and ConfigHash is its
	// canonical content hash — the route/cache key its evaluation rode.
	Config     string `json:",omitempty"`
	ConfigHash string `json:",omitempty"`
	// Invalid marks a point the architecture model rejects (Note says
	// why); it is recorded so the search never retries it, but carries
	// no metrics and can never enter the front.
	Invalid bool   `json:",omitempty"`
	Note    string `json:",omitempty"`
	// Feasible reports whether the point satisfies the spec's area and
	// power budgets; only feasible points enter the front.
	Feasible bool `json:",omitempty"`
	// Metrics are the candidate's measured objectives.
	Metrics Metrics
}

// Checkpoint is the durable search state: the defaulted spec, every
// evaluated candidate, and — once the search finishes — the final
// front. On disk it is a job journal (package job): a header line, one
// appended line per evaluated candidate, and a last line carrying the
// front, whose presence marks the search done. A torn final line (an
// append a SIGKILL interrupted) is dropped on load; any other damage is
// refused. Marshaled whole, a Checkpoint is the version-1 snapshot
// format, which LoadCheckpoint still reads and a resume migrates.
type Checkpoint struct {
	// Version is the schema version of the file read (job.Version, or 1
	// for a snapshot awaiting migration).
	Version int
	// ID is the search identity the file belongs to; a loader rejects a
	// mismatch rather than resuming someone else's candidates.
	ID string
	// Spec is the defaulted search spec.
	Spec Spec
	// Done lists evaluated candidates sorted by (Gen, Index).
	Done []CandidateResult
	// Front is the final Pareto front; non-nil only when the search ran
	// to completion (its presence is how a status probe tells "done"
	// from "interrupted"). Deliberately not omitempty: a finished search
	// whose every point broke the budgets has an empty-but-present
	// front, which must still read back as done.
	Front []FrontPoint
}

// searchEnd is a search journal's final line.
type searchEnd struct{ Front []FrontPoint }

// candidateCell addresses a record in the journal.
func candidateCell(c CandidateResult) [2]int { return [2]int{c.Gen, c.Index} }

// CheckpointPath names a search's checkpoint file inside dir.
func CheckpointPath(dir, id string) string {
	return filepath.Join(dir, "search-"+id+".json")
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
		return nil, fmt.Errorf("opt: checkpoint %s: %w", path, err)
	}
	return cp, nil
}

// parseCheckpoint decodes and validates checkpoint file contents.
func parseCheckpoint(data []byte) (*Checkpoint, error) {
	l, err := job.Parse[Spec, CandidateResult, searchEnd](data, candidateCell)
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{Version: l.Version, ID: l.ID, Spec: l.Spec, Done: l.Recs}
	if l.End != nil {
		cp.Front = l.End.Front
	}
	return cp, nil
}

// sortResults orders candidates by (Gen, Index) — the canonical
// checkpoint and front order, independent of completion order.
func sortResults(rs []CandidateResult) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Gen != rs[j].Gen {
			return rs[i].Gen < rs[j].Gen
		}
		return rs[i].Index < rs[j].Index
	})
}
