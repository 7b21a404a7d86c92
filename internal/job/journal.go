// Package job is the shared runtime of long-running jobs (robustness
// campaigns, design-space searches): a manager, a progress feed and
// NDJSON stream, a bounded worker fan-out, and the append-only checkpoint
// journal they resume from.
//
// A journal is an NDJSON file: a header line (version, job ID, defaulted
// spec), one {"Rec":…} line appended per finished cell in a single write,
// and, once the job finishes, one {"End":…} line carrying the result —
// the done marker. After a failed append the journal takes no more
// lines, so a torn fragment is always the last line. The file is
// written whole (temp file plus rename) only when a run opens it. The loader drops an unterminated final line
// (an append a kill interrupted, or a status reader raced) and refuses
// anything else that is wrong.
package job

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync/atomic"
)

// Version is the journal schema version every header carries. Version 1
// was the single-object snapshot format, which Parse still reads.
const Version = 2

// ErrWrongJob reports a journal that belongs to a different job ID.
var ErrWrongJob = errors.New("job: checkpoint belongs to a different job")

// tmpSeq distinguishes concurrent temp files within one process.
var tmpSeq atomic.Int64

// header is a journal's first line.
type header[S any] struct {
	Version int
	ID      string
	Spec    S
}

// line is every later line: exactly one of Rec (a finished cell) or End
// (the final result, the done marker) is set.
type line[R, E any] struct {
	Rec *R `json:",omitempty"`
	End *E `json:",omitempty"`
}

// Log is a parsed journal: the header, the records sorted by cell, and
// the final result once the job finished (End is never a zero E).
type Log[S, R, E any] struct {
	// Version is the schema version of the file read (1 or 2).
	Version int
	ID      string
	Spec    S
	Recs    []R
	End     *E
}

// Journal is a journal file open for appending. A nil *Journal is a
// no-op sink: a job run without a checkpoint directory.
type Journal[R, E any] struct {
	w io.WriteCloser
	// ended is set once the file holds its end line; it then takes no
	// more lines (a finished job run again recomputes nothing).
	ended bool
	// broken holds the first failed append. A failed write may leave a
	// torn fragment, so no later line may land after it: the fragment
	// must stay the file's last, unterminated line, which Parse drops.
	broken error
}

// Open prepares path for a run of job id: it loads what a previous run
// left (nothing is a first run), keeps the records keep accepts, and
// rewrites the file whole — end line included if the job had finished —
// returning it open for appending along with the kept records.
func Open[S, R, E any](path, id string, spec S, cell func(R) [2]int, keep func(R) bool) (*Journal[R, E], []R, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("job: checkpoint dir: %w", err)
	}
	var recs []R
	var end *E
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return nil, nil, err
	default:
		l, err := Parse[S, R, E](data, cell)
		if err != nil {
			return nil, nil, fmt.Errorf("job: checkpoint %s: %w", path, err)
		}
		if l.ID != id {
			return nil, nil, fmt.Errorf("%w: file %s holds %s, want %s", ErrWrongJob, path, l.ID, id)
		}
		for _, r := range l.Recs {
			if keep(r) {
				recs = append(recs, r)
			}
		}
		end = l.End
	}
	if data, err = Encode(id, spec, recs, end); err != nil {
		return nil, nil, err
	}
	tmp := fmt.Sprintf("%s.tmp.%d.%d", path, os.Getpid(), tmpSeq.Add(1))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("job: creating journal: %w", err)
	}
	if _, err = f.Write(data); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, nil, fmt.Errorf("job: writing journal: %w", err)
	}
	return &Journal[R, E]{w: f, ended: end != nil}, recs, nil
}

// Encode renders a whole journal: the header, recs and, when end is
// non-nil, the end line.
func Encode[S, R, E any](id string, spec S, recs []R, end *E) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	err := enc.Encode(header[S]{Version: Version, ID: id, Spec: spec})
	for i := 0; i < len(recs) && err == nil; i++ {
		err = enc.Encode(line[R, E]{Rec: &recs[i]})
	}
	if end != nil && err == nil {
		err = enc.Encode(line[R, E]{End: end})
	}
	if err != nil {
		return nil, fmt.Errorf("job: encoding journal: %w", err)
	}
	return buf.Bytes(), nil
}

// Append records one finished cell.
func (j *Journal[R, E]) Append(r R) error { return j.write(line[R, E]{Rec: &r}) }

// Finish appends the end line, marking the job done (a journal that
// already ends keeps its line), and closes the file.
func (j *Journal[R, E]) Finish(e E) error {
	if j == nil {
		return nil
	}
	err := j.write(line[R, E]{End: &e})
	j.ended = true
	if cerr := j.w.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close releases the file of a journal left unfinished (a failed or
// canceled run); the journal stays on disk.
func (j *Journal[R, E]) Close() error {
	if j == nil {
		return nil
	}
	return j.w.Close()
}

// write appends v as one newline-terminated line in one write call, so
// a crash tears at most this line — which the loader then drops. After
// a failed write the journal refuses every later line.
func (j *Journal[R, E]) write(v any) error {
	switch {
	case j == nil || j.ended:
		return nil
	case j.broken != nil:
		return fmt.Errorf("job: journal stopped after a failed append: %w", j.broken)
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("job: encoding journal line: %w", err)
	}
	if _, err = j.w.Write(append(data, '\n')); err != nil {
		j.broken = err
		return fmt.Errorf("job: appending to journal: %w", err)
	}
	return nil
}

// Parse reads a journal, or a version-1 snapshot, and validates it: cell
// names each record's (major, minor) address, and no two records may
// share one. Records come back sorted by cell.
func Parse[S, R, E any](data []byte, cell func(R) [2]int) (*Log[S, R, E], error) {
	var probe struct{ Version int }
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&probe); err != nil {
		return nil, fmt.Errorf("reading version: %w", err)
	}
	var l *Log[S, R, E]
	var err error
	switch probe.Version {
	case 1:
		l, err = parseV1[S, R, E](data)
	case Version:
		l, err = parseJournal[S, R, E](data)
	default:
		err = fmt.Errorf("version %d, want %d (or 1)", probe.Version, Version)
	}
	switch {
	case err != nil:
		return nil, err
	case l.ID == "":
		return nil, errors.New("carries no job ID")
	}
	seen := make(map[[2]int]bool, len(l.Recs))
	for _, r := range l.Recs {
		c := cell(r)
		if seen[c] {
			return nil, fmt.Errorf("records cell %v twice", c)
		}
		seen[c] = true
	}
	sort.Slice(l.Recs, func(a, b int) bool {
		ca, cb := cell(l.Recs[a]), cell(l.Recs[b])
		return ca[0] < cb[0] || (ca[0] == cb[0] && ca[1] < cb[1])
	})
	return l, nil
}

// parseJournal reads a version-2 journal, dropping a torn final line.
// The header's version is the one Parse probed.
func parseJournal[S, R, E any](data []byte) (*Log[S, R, E], error) {
	first, rest, _ := bytes.Cut(data[:bytes.LastIndexByte(data, '\n')+1], []byte{'\n'})
	var h header[S]
	if err := strictDecode(first, &h); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	l := &Log[S, R, E]{Version: h.Version, ID: h.ID, Spec: h.Spec}
	for n := 2; len(rest) > 0; n++ {
		var text []byte
		var ln line[R, E]
		text, rest, _ = bytes.Cut(rest, []byte{'\n'})
		if err := strictDecode(text, &ln); err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		switch {
		case l.End != nil:
			return nil, fmt.Errorf("line %d follows the end line", n)
		case ln.Rec != nil && ln.End == nil:
			l.Recs = append(l.Recs, *ln.Rec)
		case ln.End != nil && ln.Rec == nil && !isZero(*ln.End):
			l.End = ln.End
		default:
			return nil, fmt.Errorf("line %d: want one non-empty Rec or End", n)
		}
	}
	return l, nil
}

// parseV1 reads a version-1 snapshot: one object holding Version, ID,
// Spec and Done, plus the final result's fields (E's) once finished.
func parseV1[S, R, E any](data []byte) (*Log[S, R, E], error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		return nil, err
	}
	l := &Log[S, R, E]{}
	for _, f := range []struct {
		name string
		dst  any
	}{{"Version", &l.Version}, {"ID", &l.ID}, {"Spec", &l.Spec}, {"Done", &l.Recs}} {
		if err := strictDecode(fields[f.name], f.dst); err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		delete(fields, f.name)
	}
	rest, err := json.Marshal(fields)
	if err != nil {
		return nil, err
	}
	var e E
	if err := strictDecode(rest, &e); err != nil {
		return nil, err
	}
	if !isZero(e) {
		l.End = &e
	}
	return l, nil
}

// isZero reports whether v is its type's zero value: no result at all.
func isZero[E any](v E) bool { return reflect.ValueOf(&v).Elem().IsZero() }

// strictDecode decodes exactly one JSON value from data into v,
// refusing unknown fields and trailing content.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}
