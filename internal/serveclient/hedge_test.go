package serveclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"refocus/internal/serve"
)

// okHandler answers every request with a minimal evaluate response naming
// the shard, after an optional delay.
func okHandler(name string, delay time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		fmt.Fprintf(w, `{"Config": %q}`, name)
	})
}

// winner decodes the Config name out of a hedged call's winning body.
func winner(t *testing.T, res HedgeResult) string {
	t.Helper()
	var resp serve.EvaluateResponse
	if err := json.Unmarshal(res.Body, &resp); err != nil {
		t.Fatalf("winning body %q: %v", res.Body, err)
	}
	return resp.Config
}

// hedgeClient builds a single-attempt client (no internal retries) so the
// hedge layer, not the retry loop, decides failover.
func hedgeClient(t *testing.T, handler http.Handler) *Client {
	t.Helper()
	c, _ := testClient(t, handler, func(cfg *Config) { cfg.MaxRetries = -1 })
	return c
}

// TestEvaluateHedgedPrimaryWins: a healthy primary answers before the
// hedge delay and no second attempt is launched.
func TestEvaluateHedgedPrimaryWins(t *testing.T) {
	var backupCalls atomic.Int64
	primary := hedgeClient(t, okHandler("primary", 0))
	backup := hedgeClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backupCalls.Add(1)
		fmt.Fprint(w, `{"Config": "backup"}`)
	}))
	res, err := EvaluateHedged(context.Background(), []*Client{primary, backup},
		time.Second, serve.EvaluateRequest{Preset: "fb"})
	if err != nil {
		t.Fatal(err)
	}
	if winner(t, res) != "primary" || res.Target != 0 || res.Hedged || res.Attempts != 1 {
		t.Errorf("unexpected result: %+v", res)
	}
	if backupCalls.Load() != 0 {
		t.Errorf("backup was called %d times before the hedge delay", backupCalls.Load())
	}
}

// TestEvaluateHedgedSlowPrimary: a primary slower than the hedge delay
// loses to the backup; the canceled primary attempt must not count as a
// breaker failure on its (healthy, just slow) shard.
func TestEvaluateHedgedSlowPrimary(t *testing.T) {
	primary := hedgeClient(t, okHandler("primary", 2*time.Second))
	backup := hedgeClient(t, okHandler("backup", 0))
	start := time.Now()
	res, err := EvaluateHedged(context.Background(), []*Client{primary, backup},
		10*time.Millisecond, serve.EvaluateRequest{Preset: "fb"})
	if err != nil {
		t.Fatal(err)
	}
	if winner(t, res) != "backup" || res.Target != 1 || !res.Hedged || res.Attempts != 2 {
		t.Errorf("unexpected result: %+v", res)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("hedged call waited out the slow primary: %v", elapsed)
	}
	// Give the canceled primary attempt a moment to settle, then check it
	// left no breaker damage: the next direct call must not be rejected.
	time.Sleep(50 * time.Millisecond)
	primary.brk.mu.Lock()
	failures := primary.brk.failures
	primary.brk.mu.Unlock()
	if failures != 0 {
		t.Errorf("canceled hedge loser counted as %d breaker failures", failures)
	}
}

// TestEvaluateHedgedDeadPrimaryFailsOver: a dead primary (connection
// refused) fails over to the next target immediately — no lost request,
// no waiting for the hedge timer.
func TestEvaluateHedgedDeadPrimaryFailsOver(t *testing.T) {
	dead := httptest.NewServer(okHandler("dead", 0))
	deadURL := dead.URL
	dead.Close() // now refuses connections
	primary, err := New(Config{BaseURL: deadURL, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	backup := hedgeClient(t, okHandler("backup", 0))
	start := time.Now()
	res, err := EvaluateHedged(context.Background(), []*Client{primary, backup},
		time.Hour, serve.EvaluateRequest{Preset: "fb"})
	if err != nil {
		t.Fatal(err)
	}
	if winner(t, res) != "backup" || res.Target != 1 || !res.Hedged {
		t.Errorf("unexpected result: %+v", res)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("failover waited for the hedge timer: %v", elapsed)
	}
}

// TestEvaluateHedgedAllDead: every target failing yields the joined
// errors, not a hang.
func TestEvaluateHedgedAllDead(t *testing.T) {
	mk := func() *Client {
		ts := httptest.NewServer(okHandler("x", 0))
		url := ts.URL
		ts.Close()
		c, err := New(Config{BaseURL: url, MaxRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	_, err := EvaluateHedged(context.Background(), []*Client{mk(), mk()},
		time.Millisecond, serve.EvaluateRequest{Preset: "fb"})
	if err == nil {
		t.Fatal("all-dead hedge succeeded")
	}
	if res, err2 := EvaluateHedged(context.Background(), nil, 0, serve.EvaluateRequest{}); err2 == nil {
		t.Errorf("empty target list succeeded: %+v", res)
	}
}

// TestEvaluateHedgedSequentialFailover: delay <= 0 never hedges on
// latency — a slow-but-healthy primary is simply waited for.
func TestEvaluateHedgedSequentialFailover(t *testing.T) {
	var backupCalls atomic.Int64
	primary := hedgeClient(t, okHandler("primary", 30*time.Millisecond))
	backup := hedgeClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backupCalls.Add(1)
		fmt.Fprint(w, `{"Config": "backup"}`)
	}))
	res, err := EvaluateHedged(context.Background(), []*Client{primary, backup},
		0, serve.EvaluateRequest{Preset: "fb"})
	if err != nil {
		t.Fatal(err)
	}
	if winner(t, res) != "primary" || res.Hedged {
		t.Errorf("unexpected result: %+v", res)
	}
	if backupCalls.Load() != 0 {
		t.Errorf("sequential mode hedged anyway (%d backup calls)", backupCalls.Load())
	}
}

// TestSweepStreamDelivery: the client consumes the server's NDJSON lane
// line by line and a clean stream closes the breaker loop as a success.
func TestSweepStreamDelivery(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := New(Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	req := serve.SweepRequest{Points: []serve.EvaluateRequest{
		{Preset: "fb", Network: "ResNet-18"},
		{Preset: "no-such"},
		{Preset: "ff", Network: "ResNet-18"},
	}}
	got := make(map[int]serve.SweepStreamLine)
	if err := c.SweepStream(context.Background(), req, func(line serve.SweepStreamLine) error {
		got[line.Index] = line
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("stream delivered %d lines, want 3", len(got))
	}
	if got[0].Error != "" || got[0].Config != "ReFOCUS-FB" {
		t.Errorf("point 0: %+v", got[0])
	}
	if got[1].Error == "" {
		t.Error("bad point 1 carried no Error")
	}
	if st := c.Stats(); st.Requests != 1 || st.Retries != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestSweepStreamCallbackAbort: fn's error abandons the stream and comes
// back verbatim.
func TestSweepStreamCallbackAbort(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := New(Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop here")
	err = c.SweepStream(context.Background(), serve.SweepRequest{Points: []serve.EvaluateRequest{
		{Preset: "fb", Network: "ResNet-18"},
	}}, func(serve.SweepStreamLine) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("got %v, want the callback's sentinel", err)
	}
}

// TestSweepStreamStatusError: a non-2xx answer surfaces as a StatusError
// carrying the server's structured message.
func TestSweepStreamStatusError(t *testing.T) {
	c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "too big", Status: 422}) //nolint:errcheck
	}), nil)
	err := c.SweepStream(context.Background(), serve.SweepRequest{Points: []serve.EvaluateRequest{{}}},
		func(serve.SweepStreamLine) error { return nil })
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusUnprocessableEntity || se.Message != "too big" {
		t.Errorf("got %v, want a 422 StatusError", err)
	}
}

// TestEvaluateHedgedStopsAtRefusal: a 4xx other than 429 is the
// request's fault, so the hedge returns that StatusError, body and all,
// without trying the backup, and the refusing shard's breaker counts it
// as a healthy answer. A 429 still fails over.
func TestEvaluateHedgedStopsAtRefusal(t *testing.T) {
	const refusal = `{"Error": "no healthy compute path remains", "Status": 400}`
	var backupCalls atomic.Int64
	primary, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, refusal)
	}), func(cfg *Config) {
		cfg.MaxRetries = -1
		cfg.BreakerThreshold = 1
	})
	backup := hedgeClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backupCalls.Add(1)
		fmt.Fprint(w, `{"Config": "backup"}`)
	}))
	_, err := EvaluateHedged(context.Background(), []*Client{primary, backup}, 0, serve.EvaluateRequest{Preset: "fb"})
	se, ok := Refusal(err)
	if !ok || se.Status != http.StatusBadRequest || string(se.Body) != refusal {
		t.Fatalf("got %v, want the primary's 400 with its body", err)
	}
	if backupCalls.Load() != 0 {
		t.Errorf("refused request failed over to the backup %d times", backupCalls.Load())
	}
	if st := primary.Stats(); st.BreakerOpens != 0 {
		t.Errorf("a refusal opened the breaker: %+v", st)
	}

	shedding := hedgeClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	res, err := EvaluateHedged(context.Background(), []*Client{shedding, backup}, 0, serve.EvaluateRequest{Preset: "fb"})
	if err != nil || winner(t, res) != "backup" {
		t.Errorf("shed primary: got %+v, %v; want the backup to win", res, err)
	}
}
