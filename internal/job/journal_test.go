package job

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

type rec struct{ A, B int }

type end struct{ Sum int }

func cellOf(r rec) [2]int { return [2]int{r.A, r.B} }

func keepAll(rec) bool { return true }

// TestJournalLifecycle: a journal takes appends and an end line, reads
// back sorted by cell, reopens with its end line kept (taking no more
// lines), and refuses to open for a different ID; a nil journal is a
// no-op sink.
func TestJournalLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "j.json")
	j, kept, err := Open[string, rec, end](path, "id", "spec", cellOf, keepAll)
	if err != nil || len(kept) != 0 {
		t.Fatalf("first open: %v, %d kept", err, len(kept))
	}
	for _, r := range []rec{{1, 0}, {0, 1}, {0, 0}} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Finish(end{Sum: 3}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"Version":2,"ID":"id","Spec":"spec"}
{"Rec":{"A":1,"B":0}}
{"Rec":{"A":0,"B":1}}
{"Rec":{"A":0,"B":0}}
{"End":{"Sum":3}}
`
	if string(data) != want {
		t.Fatalf("journal =\n%s\nwant\n%s", data, want)
	}
	l, err := Parse[string, rec, end](data, cellOf)
	if err != nil {
		t.Fatal(err)
	}
	if l.Version != Version || l.ID != "id" || l.Spec != "spec" || l.End == nil || l.End.Sum != 3 ||
		len(l.Recs) != 3 || l.Recs[0] != (rec{0, 0}) || l.Recs[2] != (rec{1, 0}) {
		t.Errorf("parsed %+v", l)
	}

	// Reopening keeps the filtered records and the end line; a finished
	// journal takes no more lines.
	j, kept, err = Open[string, rec, end](path, "id", "spec", cellOf, func(r rec) bool { return r.A == 0 })
	if err != nil || len(kept) != 2 {
		t.Fatalf("reopen: %v, kept %v", err, kept)
	}
	if err := j.Append(rec{5, 5}); err != nil {
		t.Fatal(err)
	}
	if err := j.Finish(end{Sum: 9}); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	if want, _ := Encode("id", "spec", kept, &end{Sum: 3}); string(data) != string(want) {
		t.Errorf("reopened journal =\n%s\nwant\n%s", data, want)
	}
	if _, _, err := Open[string, rec, end](path, "other", "spec", cellOf, keepAll); !errors.Is(err, ErrWrongJob) {
		t.Errorf("foreign ID: got %v, want ErrWrongJob", err)
	}

	var none *Journal[rec, end]
	if none.Append(rec{}) != nil || none.Finish(end{}) != nil || none.Close() != nil {
		t.Error("nil journal should be a no-op")
	}
}

// tornWriter appends to buf; once fail is set, a write stores only half
// its bytes and reports an error, like a disk filling up mid-append.
type tornWriter struct {
	buf  bytes.Buffer
	fail bool
}

var errDiskFull = errors.New("disk full")

func (w *tornWriter) Write(p []byte) (int, error) {
	if w.fail {
		n, _ := w.buf.Write(p[:len(p)/2])
		return n, errDiskFull
	}
	return w.buf.Write(p)
}

func (w *tornWriter) Close() error { return nil }

// TestJournalStopsAfterFailedAppend: a write that fails part-way leaves
// a torn fragment; no later append or end line may land after it, so
// the file still parses to the records before the failure.
func TestJournalStopsAfterFailedAppend(t *testing.T) {
	w := &tornWriter{}
	head, _ := Encode[string, rec, end]("id", "spec", nil, nil)
	w.buf.Write(head)
	j := &Journal[rec, end]{w: w}
	if err := j.Append(rec{0, 0}); err != nil {
		t.Fatal(err)
	}
	w.fail = true
	if err := j.Append(rec{1, 0}); !errors.Is(err, errDiskFull) {
		t.Fatalf("torn append: got %v, want errDiskFull", err)
	}
	w.fail = false
	torn := w.buf.Len()
	if err := j.Append(rec{0, 1}); !errors.Is(err, errDiskFull) {
		t.Errorf("append after a failure: got %v, want the first failure", err)
	}
	if err := j.Finish(end{Sum: 1}); !errors.Is(err, errDiskFull) {
		t.Errorf("finish after a failure: got %v, want the first failure", err)
	}
	if w.buf.Len() != torn {
		t.Fatalf("journal grew after a failed append:\n%s", w.buf.Bytes())
	}
	l, err := Parse[string, rec, end](w.buf.Bytes(), cellOf)
	if err != nil {
		t.Fatalf("journal with a torn tail does not load: %v", err)
	}
	if len(l.Recs) != 1 || l.Recs[0] != (rec{0, 0}) || l.End != nil {
		t.Errorf("parsed %+v, want only the record before the failure", l)
	}
}

// TestParseVersion1: a snapshot object reads back with its inline end
// fields (absent or zero means unfinished); damage is refused.
func TestParseVersion1(t *testing.T) {
	l, err := Parse[string, rec, end]([]byte(`{"Version":1,"ID":"x","Spec":"s","Done":[{"A":1,"B":1},{"A":0,"B":2}],"Sum":4}`), cellOf)
	if err != nil {
		t.Fatal(err)
	}
	if l.Version != 1 || l.ID != "x" || len(l.Recs) != 2 || l.Recs[0].A != 0 || l.End == nil || l.End.Sum != 4 {
		t.Errorf("parsed %+v", l)
	}
	for _, open := range []string{
		`{"Version":1,"ID":"x","Spec":"s","Done":[]}`,
		`{"Version":1,"ID":"x","Spec":"s","Done":null,"Sum":0}`,
	} {
		if l, err := Parse[string, rec, end]([]byte(open), cellOf); err != nil || l.End != nil {
			t.Errorf("unfinished snapshot %s parsed as %+v, %v", open, l, err)
		}
	}
	for _, bad := range []string{
		`{"Version":1,"ID":"x","Spec":"s","Done":[],"Bogus":1}`,
		`{"Version":1,"ID":"x","Spec":"s","Done":[{"A":1,"C":1}]}`,
		`{"Version":1,"ID":"x","Spec":"s","Done":[]} {}`,
		`{"Version":1,"ID":"x","Spec":"s","Done":[{"A":1},{"A":1}]}`,
		`{"Version":1,"ID":"","Spec":"s","Done":[]}`,
		`{"Version":1,"ID":"x","Spec":"s"}`,
		`{"Version":1,"ID":"x","Spec":"s","Done":[]`,
		`{"Version":7,"ID":"x"}`,
		`{"Version":2,"ID":"x","Spec":"s"}` + "\n" + `{"End":{}}` + "\n",
		`[]`,
		``,
	} {
		if _, err := Parse[string, rec, end]([]byte(bad), cellOf); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}
