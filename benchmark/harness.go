// Harness: the program's servers on loopback, the HTTP client, the
// benchmark's own tracer and timing middleware, and /metrics scraping.
package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"refocus/internal/cluster"
	"refocus/internal/obs"
	"refocus/internal/serve"
)

// loopback is one in-process HTTP server bound to 127.0.0.1.
type loopback struct {
	URL string
	hs  *http.Server
	wg  sync.WaitGroup
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &loopback{URL: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.hs.Serve(ln) //nolint:errcheck // returns http.ErrServerClosed on Close
	}()
	return l, nil
}

// Close stops the server and waits for its accept loop to exit.
func (l *loopback) Close() {
	l.hs.Close()
	l.wg.Wait()
}

// worker is one refocus-serve worker tier on loopback.
type worker struct {
	srv *serve.Server
	lb  *loopback
}

// startWorker boots a worker with the service's default limits. timer,
// when non-nil, wraps its handler with the benchmark's timing middleware.
func startWorker(cfg serve.Config, timer *handlerTimer) (*worker, error) {
	s := serve.New(cfg)
	h := s.Handler()
	if timer != nil {
		h = timer.wrap("worker.handler", h)
	}
	lb, err := listen(h)
	if err != nil {
		s.Close()
		return nil, err
	}
	return &worker{srv: s, lb: lb}, nil
}

func (w *worker) Close() {
	w.lb.Close()
	w.srv.Close()
}

// coordinator is one cluster coordinator on loopback.
type coordinator struct {
	c  *cluster.Coordinator
	lb *loopback
}

func startCoordinator(cfg cluster.Config, timer *handlerTimer) (*coordinator, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	h := c.Handler()
	if timer != nil {
		h = timer.wrap("coordinator.handler", h)
	}
	lb, err := listen(h)
	if err != nil {
		c.Close()
		return nil, err
	}
	return &coordinator{c: c, lb: lb}, nil
}

func (c *coordinator) Close() {
	c.lb.Close()
	c.c.Close()
}

// newHTTPClient returns a client whose pool keeps one idle connection
// per closed-loop client, so steady state never redials. It never
// retries: a failed request is counted, not repeated.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * conns,
		MaxIdleConnsPerHost: 4 * conns,
		DisableCompression:  true,
	}}
}

// tracer records the benchmark's own spans into one Chrome trace. It
// stops recording after max spans so a long traced run writes a file of
// bounded size; a nil tracer records nothing.
type tracer struct {
	tr  *obs.Trace
	n   atomic.Int64
	max int64
}

func newTracer(max int64) *tracer { return &tracer{tr: obs.NewTrace(), max: max} }

// lane returns a context whose spans render on a lane of their own.
func (t *tracer) lane(ctx context.Context) context.Context {
	if t == nil {
		return ctx
	}
	return obs.Lane(obs.WithTrace(ctx, t.tr))
}

// span starts a span on ctx's lane (nil once the cap is reached).
func (t *tracer) span(ctx context.Context, name string) *obs.Span {
	if t == nil || t.n.Add(1) > t.max {
		return nil
	}
	return obs.StartSpan(ctx, name)
}

// handlerTimer is the timing middleware the traced run puts around a
// tier's http.Handler: it records each request's handler time under the
// X-Request-ID the worker assigns, so the client can pair its round trip
// with the server-side time of the very same request.
type handlerTimer struct {
	tr   *tracer
	lane context.Context

	mu   sync.Mutex
	byID map[string]time.Duration
}

func newHandlerTimer(tr *tracer) *handlerTimer {
	return &handlerTimer{tr: tr, lane: tr.lane(context.Background()), byID: map[string]time.Duration{}}
}

func (t *handlerTimer) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := t.tr.span(t.lane, name)
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		sp.End()
		if id := w.Header().Get("X-Request-ID"); id != "" {
			t.mu.Lock()
			t.byID[id] = d
			t.mu.Unlock()
		}
	})
}

// take returns the handler time recorded for a request id.
func (t *handlerTimer) take(id string) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.byID[id]
	delete(t.byID, id)
	return d, ok
}

// promSample is one scraped /metrics?format=prometheus exposition,
// keyed by the full series name including labels.
type promSample map[string]float64

func scrape(ctx context.Context, c *http.Client, base string) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics?format=prometheus", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("prometheus line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is the change of one series between two scrapes.
func delta(before, after promSample, series string) float64 {
	return after[series] - before[series]
}

// sumDelta adds the deltas of every series of a family (all label sets).
func sumDelta(before, after promSample, family string) float64 {
	total := 0.0
	for k, v := range after {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v - before[k]
		}
	}
	return total
}

// errShortRun reports a run or traced measurement with nothing to report.
var errShortRun = errors.New("no operation was measured")
