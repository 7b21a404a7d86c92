package job

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
)

// ErrBusy reports that a Manager already runs its maximum number of
// concurrent jobs; the serving tier maps it to 429 with a Retry-After.
// A Manager returns it under its job kind's own message.
var ErrBusy = errors.New("job: too many active jobs")

// kindError is a runtime error worded for one job kind; errors.Is still
// finds the runtime's sentinel through it.
type kindError struct {
	msg string
	err error
}

// Error returns the kind's wording.
func (e *kindError) Error() string { return e.msg }

// Unwrap exposes the runtime's sentinel to errors.Is.
func (e *kindError) Unwrap() error { return e.err }

// NDJSONContentType is the newline-delimited JSON media type job
// progress streams are served with.
const NDJSONContentType = "application/x-ndjson"

// Feed is a live job's progress broadcast: updates fan out to
// subscribers without ever blocking the job, and Done closes when the
// job finishes. Build one with NewFeed.
type Feed[U any] struct {
	mu     sync.Mutex
	subs   map[chan U]struct{} // nil once the job finished
	doneCh chan struct{}
}

// NewFeed returns an open feed.
func NewFeed[U any]() *Feed[U] {
	return &Feed[U]{subs: make(map[chan U]struct{}), doneCh: make(chan struct{})}
}

// Done is closed when the job finishes (any outcome).
func (f *Feed[U]) Done() <-chan struct{} { return f.doneCh }

// Finished reports whether the job has finished.
func (f *Feed[U]) Finished() bool {
	select {
	case <-f.doneCh:
		return true
	default:
		return false
	}
}

// Publish broadcasts u. Slow subscribers miss intermediate updates
// (their channel is full); the end is delivered by closing it instead.
func (f *Feed[U]) Publish(u U) {
	f.mu.Lock()
	for ch := range f.subs {
		select {
		case ch <- u:
		default:
		}
	}
	f.mu.Unlock()
}

// Close marks the job finished and wakes every subscriber and waiter.
func (f *Feed[U]) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	// doneCh first: a subscriber woken by its channel closing must
	// already read the job as finished.
	close(f.doneCh)
	for ch := range f.subs {
		close(ch)
	}
	f.subs = nil
}

// Subscribe returns a channel of progress updates and a cancel func the
// caller must invoke when done. The channel is closed when the job
// finishes (immediately, if it already has); intermediate updates are
// dropped rather than blocking the job when the subscriber lags.
func (f *Feed[U]) Subscribe() (<-chan U, func()) {
	ch := make(chan U, 16)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.subs == nil {
		close(ch)
		return ch, func() {}
	}
	f.subs[ch] = struct{}{}
	return ch, func() {
		f.mu.Lock()
		if _, ok := f.subs[ch]; ok {
			delete(f.subs, ch)
			close(ch)
		}
		f.mu.Unlock()
	}
}

// Manager owns a serving process's jobs of one kind (T reports when a
// job finished): it starts them, attaches re-submissions of a live job
// ID to that job, bounds how many run at once, and cancels everything on
// Close.
type Manager[T interface{ Finished() bool }] struct {
	ctx       context.Context
	cancel    context.CancelFunc
	maxActive int
	pkg, kind string

	mu   sync.Mutex
	jobs map[string]T
	wg   sync.WaitGroup
}

// NewManager returns a Manager running at most maxActive jobs at once.
// Its errors read "<pkg>: too many active <kind>" and "<pkg>: manager
// closed".
func NewManager[T interface{ Finished() bool }](maxActive int, pkg, kind string) *Manager[T] {
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager[T]{ctx: ctx, cancel: cancel, maxActive: maxActive, pkg: pkg, kind: kind, jobs: make(map[string]T)}
}

// Start returns the live job with this id (created false) or, unless
// maxActive jobs are running (ErrBusy), creates one with newJob and runs
// it in the background under the manager's context.
func (m *Manager[T]) Start(id string, newJob func() T, run func(context.Context, T)) (job T, created bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.ctx.Err(); err != nil {
		return job, false, fmt.Errorf("%s: manager closed: %w", m.pkg, err)
	}
	if j, ok := m.jobs[id]; ok && !j.Finished() {
		return j, false, nil
	}
	active := 0
	for _, j := range m.jobs {
		if !j.Finished() {
			active++
		}
	}
	if active >= m.maxActive {
		return job, false, &kindError{msg: fmt.Sprintf("%s: too many active %s", m.pkg, m.kind), err: ErrBusy}
	}
	job = newJob()
	m.jobs[id] = job
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		run(m.ctx, job)
	}()
	return job, true, nil
}

// Get returns the job most recently started with this id, if any.
func (m *Manager[T]) Get(id string) (T, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Close cancels every running job and waits for them to unwind. Their
// journals survive, so a restarted process resumes them.
func (m *Manager[T]) Close() {
	m.cancel()
	m.wg.Wait()
}

// Fan runs do for every item of pending on up to workers goroutines (<1
// means 2). commit receives each result in completion order under one
// mutex — so it must not block — and returns what to run once the mutex
// is released (hooks, update sinks). The first error from do or commit
// cancels the rest and is returned; otherwise ctx's error, if any.
func Fan[K, V any](ctx context.Context, workers int, pending []K, do func(context.Context, K) (V, error), commit func(K, V) (func(), error)) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	if workers < 1 {
		workers = 2
	}
	next := make(chan K)
	for w := 0; w < min(workers, len(pending)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				v, err := do(cctx, k)
				after := func() {}
				mu.Lock()
				if err == nil {
					after, err = commit(k, v)
				}
				fail(err)
				mu.Unlock()
				after()
			}
		}()
	}
feed:
	for _, k := range pending {
		select {
		case next <- k:
		case <-cctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// Stream writes a job's progress to w as NDJSON: one line per update
// from the subscription, then — once it closes — the final() line.
// onLine, if non-nil, is called after each line (stream metrics). Blocks
// until the job finishes or the client disconnects.
func Stream[U any](w http.ResponseWriter, r *http.Request, updates <-chan U, final func() U, onLine func()) {
	w.Header().Set("Content-Type", NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	line := func(u U) bool {
		if err := enc.Encode(u); err != nil {
			return false
		}
		rc.Flush()
		if onLine != nil {
			onLine()
		}
		return true
	}
	for {
		select {
		case u, ok := <-updates:
			if !ok {
				line(final())
				return
			}
			if !line(u) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
