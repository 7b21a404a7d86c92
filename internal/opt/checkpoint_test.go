package opt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"refocus/internal/arch"
	"refocus/internal/job"
)

// errWrongSearch is the error a runner refuses a foreign journal with.
var errWrongSearch = job.ErrWrongJob

// endOf returns the journal's end line for cp, or nil when cp carries
// no final result.
func endOf(cp *Checkpoint) *searchEnd {
	if cp.Front == nil {
		return nil
	}
	return &searchEnd{Front: cp.Front}
}

// writeCheckpoint stores cp at path in the format its Version names: a
// version-1 snapshot, byte for byte as releases before the journal wrote
// it, or a journal.
func writeCheckpoint(path string, cp *Checkpoint) error {
	data, err := encodeCheckpoint(cp)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// encodeCheckpoint renders cp in the format its Version names.
func encodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	if cp.Version == 1 {
		return json.MarshalIndent(cp, "", " ")
	}
	return job.Encode(cp.ID, cp.Spec, cp.Done, endOf(cp))
}

// interruptedSearch runs spec in a fresh directory and cancels it after
// n evaluated candidates, leaving a partial journal behind.
func interruptedSearch(t *testing.T, spec Spec, n int64) (dir, id string) {
	t.Helper()
	dir = t.TempDir()
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var evaluated atomic.Int64
	r := &Runner{
		Spec: spec, ID: id, Dir: dir, Eval: DirectEval(), Parallelism: 1,
		Hooks: Hooks{PointExecuted: func(CandidateResult) {
			if evaluated.Add(1) == n {
				cancel()
			}
		}},
	}
	if _, err := r.Run(ctx); err == nil {
		t.Fatal("interrupted search should return an error")
	}
	return dir, id
}

// resume runs spec to completion over dir and checks the no-duplicate
// invariant and the front against control.
func resume(t *testing.T, spec Spec, id, dir string, control *Result) *Result {
	t.Helper()
	res, err := (&Runner{Spec: spec, ID: id, Dir: dir, Eval: DirectEval(), Parallelism: 2}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed+res.Resumed != control.Completed || res.Completed != control.Completed {
		t.Errorf("executed %d + resumed %d, completed %d; want %d", res.Executed, res.Resumed, res.Completed, control.Completed)
	}
	if got, want := frontJSON(t, res.Front), frontJSON(t, control.Front); got != want {
		t.Errorf("resumed front differs from control:\n got %s\nwant %s", got, want)
	}
	return res
}

// TestCheckpointV1Migration: a version-1 snapshot, partial or finished,
// resumes to the control front and is rewritten once as a journal.
func TestCheckpointV1Migration(t *testing.T) {
	spec := testSpec(StrategyEvolve)
	control := mustRun(t, spec, "", 2)
	dir, id := interruptedSearch(t, spec, 5)
	path := CheckpointPath(dir, id)

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cp.Version = 1
	if err := writeCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	if v1, err := LoadCheckpoint(path); err != nil || v1.Version != 1 || len(v1.Done) != len(cp.Done) || v1.Front != nil {
		t.Fatalf("partial v1 snapshot read back as %+v, %v", v1, err)
	}
	if res := resume(t, spec, id, dir, control); res.Resumed != len(cp.Done) {
		t.Errorf("resumed %d points from the v1 file, want %d", res.Resumed, len(cp.Done))
	}
	done, err := LoadCheckpoint(path)
	if err != nil || done.Version != job.Version || done.Front == nil {
		t.Fatalf("resume left %+v, %v; want a finished journal", done, err)
	}

	// A finished snapshot resumes with nothing to evaluate and stays done.
	done.Version = 1
	if err := writeCheckpoint(path, done); err != nil {
		t.Fatal(err)
	}
	if res := resume(t, spec, id, dir, control); res.Executed != 0 {
		t.Errorf("finished v1 file re-evaluated %d points", res.Executed)
	}
	again, err := LoadCheckpoint(path)
	if err != nil || again.Version != job.Version || frontJSON(t, again.Front) != frontJSON(t, control.Front) {
		t.Fatalf("migrated finished file read back as %+v, %v", again, err)
	}
}

// TestCheckpointTornTail: a journal cut at any byte inside its last
// record loads without that record and resumes to the control front.
func TestCheckpointTornTail(t *testing.T) {
	spec := testSpec(StrategyEvolve)
	control := mustRun(t, spec, "", 2)
	dir, id := interruptedSearch(t, spec, 5)
	data, err := os.ReadFile(CheckpointPath(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	full, err := LoadCheckpoint(CheckpointPath(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	for cut := last + 1; cut < len(data); cut++ {
		d := t.TempDir()
		if err := os.WriteFile(CheckpointPath(d, id), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(CheckpointPath(d, id))
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(cp.Done) != len(full.Done)-1 {
			t.Fatalf("cut at %d kept %d records, want %d", cut, len(cp.Done), len(full.Done)-1)
		}
		resume(t, spec, id, d, control)
	}
}

// tamperings damages a journal (header, records..., optionally end) in
// every way the loader must refuse rather than resume from.
func tamperings(lines [][]byte) map[string][]byte {
	join := func(ls ...[]byte) []byte { return bytes.Join(ls, nil) }
	body := join(lines[1:]...)
	rec := lines[1]
	return map[string][]byte{
		"malformed line":   join(lines[0], rec[:len(rec)/2], []byte("\n"), body),
		"blank line":       join(lines[0], []byte("\n"), body),
		"unknown field":    join(lines[0], bytes.Replace(rec, []byte(`{"Rec":{`), []byte(`{"Rec":{"Bogus":1,`), 1), body),
		"unknown envelope": join(lines[0], []byte(`{"Bogus":{}}`+"\n"), body),
		"empty envelope":   join(lines[0], []byte("{}\n"), body),
		"two values":       join(lines[0], bytes.Replace(rec, []byte("\n"), []byte(" {}\n"), 1), body),
		"duplicate cell":   join(lines[0], body, rec),
		"empty end":        join(lines[0], body, []byte(`{"End":{}}`+"\n")),
		"line after end":   join(lines[0], body, []byte(`{"End":{"Front":[]}}`+"\n"), rec),
		"missing header":   body,
		"header version 3": join(bytes.Replace(lines[0], []byte(`"Version":2`), []byte(`"Version":3`), 1), body),
		"header version 1": join(bytes.Replace(lines[0], []byte(`"Version":2`), []byte(`"Version":1`), 1), body),
		"header unknown":   join(bytes.Replace(lines[0], []byte(`{"Version":2`), []byte(`{"Version":2,"Bogus":1`), 1), body),
		"header only torn": lines[0][:len(lines[0])-1],
	}
}

// TestCheckpointTamperRefused: damaged journals and foreign IDs fail
// with an error — never a panic, never a resume that rewrites the file.
func TestCheckpointTamperRefused(t *testing.T) {
	spec := testSpec(StrategyEvolve)
	dir, id := interruptedSearch(t, spec, 5)
	data, err := os.ReadFile(CheckpointPath(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	cases := tamperings(bytes.SplitAfter(data, []byte("\n"))[:5])
	cases["wrong ID"] = bytes.Replace(data, []byte(id), []byte("someone-else"), 1)
	for name, body := range cases {
		d := t.TempDir()
		path := CheckpointPath(d, id)
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); err == nil && name != "wrong ID" {
			t.Errorf("%s: LoadCheckpoint accepted\n%s", name, body)
		}
		res, err := (&Runner{Spec: spec, ID: id, Dir: d, Eval: DirectEval()}).Run(context.Background())
		if err == nil {
			t.Errorf("%s: Run resumed (executed %d, resumed %d)", name, res.Executed, res.Resumed)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, body) {
			t.Errorf("%s: refused run rewrote the file", name)
		}
	}
}

// TestStatusFromDiskWhileAppending: a status reader polling the journal
// while the search appends never errors and never sees progress recede.
func TestStatusFromDiskWhileAppending(t *testing.T) {
	dir := t.TempDir()
	slow := PointEval(func(ctx context.Context, spec Spec, cfg arch.SystemConfig, key string) (PointMetrics, error) {
		time.Sleep(200 * time.Microsecond)
		return DirectEval()(ctx, spec, cfg, key)
	})
	m, err := NewManager(ManagerConfig{Dir: dir, Eval: slow, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spec := testSpec(StrategyEvolve)
	spec.Generations, spec.Population = 6, 12
	j, _, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	seen, polls, last := -1, 0, Status("")
	for finished := false; !finished; polls++ {
		select {
		case <-j.Done():
			finished = true
		default:
		}
		st, err := m.StatusFromDisk(j.ID())
		switch {
		case errors.Is(err, os.ErrNotExist) && seen < 0:
			continue // the run has not created its journal yet
		case err != nil:
			t.Fatalf("poll %d: %v", polls, err)
		case st.CompletedPoints < seen:
			t.Fatalf("poll %d: CompletedPoints fell from %d to %d", polls, seen, st.CompletedPoints)
		}
		seen, last = st.CompletedPoints, st.Status
	}
	if total := spec.Generations * spec.Population; seen != total || last != StatusDone {
		t.Errorf("last poll saw %d of %d points, status %s", seen, total, last)
	}
}

// FuzzLoadCheckpoint: arbitrary file contents either load into a
// well-formed checkpoint that survives a journal round trip, or fail —
// never panic.
func FuzzLoadCheckpoint(f *testing.F) {
	spec := testSpec(StrategyEvolve)
	done := []CandidateResult{
		{Gen: 0, Index: 1, M: 16, Config: "a", Feasible: true, Metrics: Metrics{FPS: 2, PAP: 1}},
		{Gen: 0, Index: 0, Invalid: true, Note: "no"},
	}
	for _, cp := range []*Checkpoint{
		{Version: job.Version, ID: "x", Spec: spec, Done: done},
		{Version: job.Version, ID: "x", Spec: spec, Done: done, Front: []FrontPoint{{Config: "a"}}},
		{Version: 1, ID: "x", Spec: spec, Done: done, Front: []FrontPoint{}},
	} {
		data, err := encodeCheckpoint(cp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(`{"Version":2,"ID":"x","Spec":null}` + "\n" + `{"Rec":{"Gen":-1}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := parseCheckpoint(data)
		if err != nil {
			return
		}
		if cp.ID == "" {
			t.Fatal("loaded a checkpoint with no ID")
		}
		for i := 1; i < len(cp.Done); i++ {
			a, b := cp.Done[i-1], cp.Done[i]
			if a.Gen > b.Gen || (a.Gen == b.Gen && a.Index >= b.Index) {
				t.Fatalf("records out of order or duplicated: %+v then %+v", a, b)
			}
		}
		cp.Version = job.Version
		enc, err := encodeCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		back, err := parseCheckpoint(enc)
		if err != nil {
			t.Fatalf("round trip refused: %v", err)
		}
		want, _ := json.Marshal(cp)
		if got, _ := json.Marshal(back); !bytes.Equal(got, want) {
			t.Fatalf("round trip changed the checkpoint:\n got %s\nwant %s", got, want)
		}
	})
}
