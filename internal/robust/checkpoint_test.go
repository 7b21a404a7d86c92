package robust

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"refocus/internal/job"
)

// errWrongCampaign is the error a runner refuses a foreign journal with.
var errWrongCampaign = job.ErrWrongJob

// endOf returns the journal's end line for cp, or nil when cp carries
// no final result.
func endOf(cp *Checkpoint) *campaignEnd {
	if cp.Frontier == nil && cp.NominalFPS == 0 && cp.CleanAccuracy == 0 {
		return nil
	}
	return &campaignEnd{NominalFPS: cp.NominalFPS, CleanAccuracy: cp.CleanAccuracy, Frontier: cp.Frontier}
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

// interruptedCampaign runs spec in a fresh directory and cancels it
// after n completed trials, leaving a partial journal behind.
func interruptedCampaign(t *testing.T, spec Spec, n int) (dir, id string) {
	t.Helper()
	dir, id = t.TempDir(), mustID(t, spec)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &Runner{
		Spec: spec, ID: id, Dir: dir, Eval: fakeEval, Parallelism: 1,
		OnUpdate: func(u Update) {
			if u.Completed >= n {
				cancel()
			}
		},
	}
	if _, err := r.Run(ctx); err == nil {
		t.Fatal("interrupted campaign should return an error")
	}
	return dir, id
}

// resumeCampaign runs spec to completion over dir and checks the
// no-duplicate invariant and the frontier against control.
func resumeCampaign(t *testing.T, spec Spec, id, dir string, control *Result) *Result {
	t.Helper()
	res, err := (&Runner{Spec: spec, ID: id, Dir: dir, Eval: fakeEval, Parallelism: 2}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if total := len(spec.Severities) * spec.Trials; res.Executed+res.Resumed != total {
		t.Errorf("executed %d + resumed %d != total %d", res.Executed, res.Resumed, total)
	}
	if got, want := marshalFrontier(t, res.Frontier), marshalFrontier(t, control.Frontier); !bytes.Equal(got, want) {
		t.Errorf("resumed frontier differs from control:\n got %s\nwant %s", got, want)
	}
	return res
}

// TestCheckpointV1Migration: a version-1 snapshot, partial or finished,
// resumes to the control frontier and is rewritten once as a journal.
func TestCheckpointV1Migration(t *testing.T) {
	spec := testSpec()
	control := runCampaign(t, spec, "", 2)
	dir, id := interruptedCampaign(t, spec, 3)
	path := CheckpointPath(dir, id)

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cp.Version = 1
	if err := writeCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	if v1, err := LoadCheckpoint(path); err != nil || v1.Version != 1 || len(v1.Done) != len(cp.Done) || v1.Frontier != nil {
		t.Fatalf("partial v1 snapshot read back as %+v, %v", v1, err)
	}
	if res := resumeCampaign(t, spec, id, dir, control); res.Resumed != len(cp.Done) {
		t.Errorf("resumed %d trials from the v1 file, want %d", res.Resumed, len(cp.Done))
	}
	done, err := LoadCheckpoint(path)
	if err != nil || done.Version != job.Version || done.Frontier == nil || done.NominalFPS != control.NominalFPS {
		t.Fatalf("resume left %+v, %v; want a finished journal", done, err)
	}

	// A finished snapshot resumes with nothing to run and stays done.
	done.Version = 1
	if err := writeCheckpoint(path, done); err != nil {
		t.Fatal(err)
	}
	if res := resumeCampaign(t, spec, id, dir, control); res.Executed != 0 {
		t.Errorf("finished v1 file re-ran %d trials", res.Executed)
	}
	again, err := LoadCheckpoint(path)
	if err != nil || again.Version != job.Version || !bytes.Equal(marshalFrontier(t, again.Frontier), marshalFrontier(t, control.Frontier)) ||
		again.CleanAccuracy != control.CleanAccuracy {
		t.Fatalf("migrated finished file read back as %+v, %v", again, err)
	}
}

// TestCheckpointTornTail: a journal cut at any byte inside its last
// record loads without that record and resumes to the control frontier.
func TestCheckpointTornTail(t *testing.T) {
	spec := testSpec()
	control := runCampaign(t, spec, "", 2)
	dir, id := interruptedCampaign(t, spec, 3)
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
		resumeCampaign(t, spec, id, d, control)
	}
}

// TestCheckpointTamperRefused: damaged journals and foreign IDs fail
// with an error — never a panic, never a resume that rewrites the file.
func TestCheckpointTamperRefused(t *testing.T) {
	spec := testSpec()
	dir, id := interruptedCampaign(t, spec, 3)
	data, err := os.ReadFile(CheckpointPath(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))[:3]
	join := func(ls ...[]byte) []byte { return bytes.Join(ls, nil) }
	head, rec, body := lines[0], lines[1], join(lines[1:]...)
	for name, body := range map[string][]byte{
		"malformed line":   join(head, rec[:len(rec)/2], []byte("\n"), body),
		"unknown field":    join(head, bytes.Replace(rec, []byte(`{"Rec":{`), []byte(`{"Rec":{"Bogus":1,`), 1), body),
		"duplicate cell":   join(head, body, rec),
		"line after end":   join(head, body, []byte(`{"End":{"NominalFPS":1}}`+"\n"), rec),
		"missing header":   body,
		"header version 3": join(bytes.Replace(head, []byte(`"Version":2`), []byte(`"Version":3`), 1), body),
		"wrong ID":         bytes.Replace(data, []byte(id), []byte("someone-else"), 1),
	} {
		d := t.TempDir()
		path := CheckpointPath(d, id)
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); err == nil && name != "wrong ID" {
			t.Errorf("%s: LoadCheckpoint accepted\n%s", name, body)
		}
		res, err := (&Runner{Spec: spec, ID: id, Dir: d, Eval: fakeEval}).Run(context.Background())
		if err == nil {
			t.Errorf("%s: Run resumed (executed %d, resumed %d)", name, res.Executed, res.Resumed)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, body) {
			t.Errorf("%s: refused run rewrote the file", name)
		}
	}
}

// FuzzLoadCheckpoint: arbitrary file contents either load into a
// well-formed checkpoint that survives a journal round trip, or fail —
// never panic.
func FuzzLoadCheckpoint(f *testing.F) {
	spec := testSpec()
	done := []TrialResult{
		{Severity: 1, Trial: 0, Seed: 5, FPS: 900, Energy: 1, Accuracy: 0.5},
		{Severity: 0, Trial: 2, Seed: 7, Failed: true},
	}
	frontier := []FrontierPoint{{Severity: 1, Trials: 1, Yield: 1}}
	for _, cp := range []*Checkpoint{
		{Version: job.Version, ID: "x", Spec: spec, Done: done},
		{Version: job.Version, ID: "x", Spec: spec, Done: done, NominalFPS: 1000, CleanAccuracy: 0.9, Frontier: frontier},
		{Version: 1, ID: "x", Spec: spec, Done: done, NominalFPS: 1000, Frontier: frontier},
	} {
		data, err := encodeCheckpoint(cp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
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
			if a.Severity > b.Severity || (a.Severity == b.Severity && a.Trial >= b.Trial) {
				t.Fatalf("trials out of order or duplicated: %+v then %+v", a, b)
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
