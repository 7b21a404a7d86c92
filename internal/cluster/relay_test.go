package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"refocus/internal/arch"
	"refocus/internal/serve"
)

// referenceWorker boots one fresh worker outside any cluster: what the
// coordinator's answers must be byte-identical to.
func referenceWorker(t *testing.T) string {
	t.Helper()
	w := serve.New(serve.Config{})
	t.Cleanup(w.Close)
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// relaySpec is a small valid inline network.
const relaySpec = `{"Name": "tiny", "Layers": [
	{"Kind": "fc", "Name": "f", "In": 128, "Out": 128, "Tokens": 1, "Repeat": 3}]}`

// overLimitSpec has 600 layer instances, past the default limit of 512.
const overLimitSpec = `{"Name": "big", "Layers": [
	{"Kind": "fc", "Name": "f", "In": 8, "Out": 8, "Tokens": 1, "Repeat": 600}]}`

// TestCoordinatorEvaluateRelaysWorkerBody: the coordinator's
// /v1/evaluate body is byte-identical to a worker's for a healthy, a
// degraded and an inline-spec request.
func TestCoordinatorEvaluateRelaysWorkerBody(t *testing.T) {
	_, url, _, _ := testCluster(t, 2, nil)
	ref := referenceWorker(t)
	for name, body := range map[string]string{
		"healthy":  `{"Preset": "fb", "Network": "all"}`,
		"degraded": `{"Preset": "fb", "Network": "ResNet-18", "Faults": {"DeadRFCUs": [0]}}`,
		"inline":   `{"Config": {"Base": "fb", "Name": "inline-pt", "M": 32}, "NetworkSpec": ` + relaySpec + `}`,
	} {
		cs, cb := postJSON(t, url+"/v1/evaluate", body)
		ws, wb := postJSON(t, ref+"/v1/evaluate", body)
		if cs != http.StatusOK || ws != http.StatusOK {
			t.Fatalf("%s: coordinator %d, worker %d\n%s\n%s", name, cs, ws, cb, wb)
		}
		if !bytes.Equal(cb, wb) {
			t.Errorf("%s: coordinator body differs from the worker's:\n%s\n%s", name, cb, wb)
		}
	}
}

// relaySweep mixes served points (healthy, "all", degraded, inline spec)
// with points the coordinator refuses at the edge. Every point has its
// own cache keys, so hit counts do not depend on completion order.
const relaySweep = `{"Points": [
	{"Preset": "fb", "Network": "ResNet-18", "Overrides": {"Name": "pt-0"}},
	{"Preset": "fb", "Network": "all", "Overrides": {"Name": "pt-1"}},
	{"Preset": "fb", "Network": "ResNet-18", "Overrides": {"Name": "pt-2"}, "Faults": {"DeadRFCUs": [0]}},
	{"Config": {"Base": "fb", "Name": "pt-3", "M": 32}, "NetworkSpec": ` + relaySpec + `},
	{"Preset": "no-such"},
	{"Preset": "fb", "Network": "no-such-net"},
	{"Preset": "fb", "NetworkSpec": ` + overLimitSpec + `},
	{"Preset": "ff", "Network": "ResNet-18", "NetworkSpec": ` + relaySpec + `}
]}`

// streamLines posts a sweep on the NDJSON lane and returns its lines
// sorted by Index.
func streamLines(t *testing.T, url, body string) [][]byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", serve.NDJSONContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d %s", resp.StatusCode, buf.Bytes())
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	index := func(line []byte) int {
		var v struct{ Index int }
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		return v.Index
	}
	sort.Slice(lines, func(i, j int) bool { return index(lines[i]) < index(lines[j]) })
	return lines
}

// TestCoordinatorStreamRelaysWorkerLines: the coordinator's NDJSON
// lines, sorted by Index, are byte-identical to a worker's for the same
// sweep, inline Error lines included.
func TestCoordinatorStreamRelaysWorkerLines(t *testing.T) {
	_, url, _, _ := testCluster(t, 2, nil)
	got := streamLines(t, url, relaySweep)
	want := streamLines(t, referenceWorker(t), relaySweep)
	if len(got) != 8 || len(want) != 8 {
		t.Fatalf("coordinator streamed %d lines, worker %d, want 8 each", len(got), len(want))
	}
	errLines := 0
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("line %d differs:\n%s%s", i, got[i], want[i])
		}
		if bytes.Contains(got[i], []byte(`"Error":`)) {
			errLines++
		}
	}
	if errLines != 4 {
		t.Errorf("%d error lines, want 4", errLines)
	}
}

// TestCoordinatorBufferedSweepMatchesWorker: the buffered lane still
// decodes and re-encodes, and its body stays byte-identical to a
// worker's.
func TestCoordinatorBufferedSweepMatchesWorker(t *testing.T) {
	_, url, _, _ := testCluster(t, 2, nil)
	cs, cb := postJSON(t, url+"/v1/sweep", relaySweep)
	ws, wb := postJSON(t, referenceWorker(t)+"/v1/sweep", relaySweep)
	if cs != http.StatusOK || ws != http.StatusOK {
		t.Fatalf("coordinator %d, worker %d\n%s\n%s", cs, ws, cb, wb)
	}
	if !bytes.Equal(cb, wb) {
		t.Errorf("buffered sweep differs:\n%s\n%s", cb, wb)
	}
}

// TestCoordinatorEdgeRefusalsMatchWorker: an unknown network, a bad
// preset and an over-limit spec are refused by the coordinator with the
// worker's status and message, and no request reaches a shard — neither
// from /v1/evaluate nor from a sweep of such points.
func TestCoordinatorEdgeRefusalsMatchWorker(t *testing.T) {
	_, url, shards, _ := testCluster(t, 2, nil)
	ref := referenceWorker(t)
	bad := []string{
		`{"Preset": "fb", "Network": "no-such-net"}`,
		`{"Preset": "no-such"}`,
		`{"Preset": "fb", "NetworkSpec": ` + overLimitSpec + `}`,
	}
	for _, body := range bad {
		cs, cb := postJSON(t, url+"/v1/evaluate", body)
		ws, wb := postJSON(t, ref+"/v1/evaluate", body)
		if cs == http.StatusOK || cs != ws || !bytes.Equal(cb, wb) {
			t.Errorf("%s:\ncoordinator %d %s\nworker %d %s", body, cs, cb, ws, wb)
		}
	}
	if status, body := postJSON(t, url+"/v1/sweep", `{"Points": [`+strings.Join(bad, ",")+`]}`); status != http.StatusOK {
		t.Fatalf("sweep of refused points: %d %s", status, body)
	}
	for i, s := range shards {
		snap := s.MetricsSnapshot()
		if n := snap.Endpoints["/v1/evaluate"].Requests + snap.Endpoints["/v1/sweep"].Requests; n != 0 {
			t.Errorf("shard %d saw %d requests — edge validation leaked", i, n)
		}
	}
}

// TestShardConnectionsKept: the shard clients' idle pool holds a full
// burst of ShardConcurrency dispatches, so a second burst to the same
// shard reuses every connection instead of dialing.
func TestShardConnectionsKept(t *testing.T) {
	const burst = 8 // the default ShardConcurrency
	var dials atomic.Int64
	var mu sync.Mutex
	arrived := 0
	release := make(chan struct{})
	shard := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold every request until the whole burst is in flight, so the
		// burst needs burst connections at once.
		mu.Lock()
		wait := release
		if arrived++; arrived%burst == 0 {
			close(release)
			release = make(chan struct{})
		}
		mu.Unlock()
		select {
		case <-wait:
		case <-time.After(5 * time.Second):
		}
		w.Write([]byte(`{"Config": "held"}`)) //nolint:errcheck
	}))
	shard.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	shard.Start()
	defer shard.Close()
	coord, err := New(Config{Shards: []string{shard.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if coord.cfg.ShardConcurrency != burst {
		t.Fatalf("default ShardConcurrency %d, test assumes %d", coord.cfg.ShardConcurrency, burst)
	}
	fire := func() {
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := coord.dispatchKeyed(context.Background(), serve.EvaluateRequest{Preset: "fb"}, "k"); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	fire()
	if n := dials.Load(); n != burst {
		t.Fatalf("first burst opened %d connections, want %d", n, burst)
	}
	fire()
	if n := dials.Load(); n != burst {
		t.Errorf("second burst opened %d new connections, want 0", n-burst)
	}
}

// TestCoordinatorStreamRefusesNonObjectBody: a shard body that is not a
// JSON object becomes an inline Error line, never a malformed one.
func TestCoordinatorStreamRefusesNonObjectBody(t *testing.T) {
	for _, answer := range []string{`[1]`, `{}`, `{"Config": `} {
		shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(answer)) //nolint:errcheck
		}))
		coord, err := New(Config{Shards: []string{shard.URL}})
		if err != nil {
			t.Fatal(err)
		}
		cts := httptest.NewServer(coord.Handler())
		lines := streamLines(t, cts.URL, `{"Points": [{"Preset": "fb"}]}`)
		var line serve.SweepStreamLine
		if len(lines) != 1 || json.Unmarshal(lines[0], &line) != nil || !strings.Contains(line.Error, "not a JSON object") {
			t.Errorf("shard answer %s streamed as %q", answer, lines)
		}
		cts.Close()
		coord.Close()
		shard.Close()
	}
}

// deadChipRequest evaluates the fb design point with every RFCU dead:
// the request is well formed and routes like any other, but only the
// worker's fault remap can tell that nothing runs, so the shard refuses
// it with a 400.
func deadChipRequest(t *testing.T) string {
	t.Helper()
	dead := make([]string, arch.FB().NRFCU)
	for i := range dead {
		dead[i] = strconv.Itoa(i)
	}
	return `{"Preset": "fb", "Network": "ResNet-18", "Faults": {"DeadRFCUs": [` + strings.Join(dead, ",") + `]}}`
}

// TestRefusalKeepsBreakersClosed: shard refusals are a healthy shard
// judging a bad request, not shard failures. Two refused points (the
// coordinator's breaker threshold) must leave every breaker closed, so
// the next healthy point is served.
func TestRefusalKeepsBreakersClosed(t *testing.T) {
	coord, url, _, _ := testCluster(t, 2, nil)
	bad := deadChipRequest(t)
	for i := 0; i < 2; i++ {
		if status, body := postJSON(t, url+"/v1/evaluate", bad); status != http.StatusBadRequest {
			t.Fatalf("dead chip %d answered %d, want 400: %s", i, status, body)
		}
	}
	if status, body := postJSON(t, url+"/v1/evaluate", `{"Preset":"fb","Network":"ResNet-18"}`); status != http.StatusOK {
		t.Fatalf("healthy point after two refusals answered %d: %s", status, body)
	}
	for shard, cl := range coord.clients {
		if st := cl.Stats(); st.BreakerOpens != 0 || st.BreakerRejects != 0 {
			t.Errorf("shard %s: breaker %+v after refusals, want it closed", shard, st)
		}
	}
}

// TestRefusalRelayedFromOneShard: a refused point reaches exactly one
// shard — every ring successor would refuse it the same way — and the
// coordinator answers with that shard's status and body, byte for byte.
func TestRefusalRelayedFromOneShard(t *testing.T) {
	coord, url, _, _ := testCluster(t, 2, nil)
	ref := referenceWorker(t)
	bad := deadChipRequest(t)
	cs, cb := postJSON(t, url+"/v1/evaluate", bad)
	ws, wb := postJSON(t, ref+"/v1/evaluate", bad)
	if cs != http.StatusBadRequest || ws != http.StatusBadRequest {
		t.Fatalf("coordinator %d, worker %d; want 400 from both\n%s\n%s", cs, ws, cb, wb)
	}
	if !bytes.Equal(cb, wb) {
		t.Errorf("coordinator body differs from the worker's:\n%s\n%s", cb, wb)
	}
	var reached int64
	for _, cl := range coord.clients {
		reached += cl.Stats().Requests
	}
	if reached != 1 {
		t.Errorf("refused point reached shards %d times, want 1", reached)
	}
}

// TestCoordinatorSweepRelaysShardRefusal: a sweep point the shard
// refuses (every RFCU dead) carries the worker's own message, so the
// coordinator's sweep is byte-identical to a worker's on the buffered
// and the NDJSON lane alike. Each lane starts from cold caches.
func TestCoordinatorSweepRelaysShardRefusal(t *testing.T) {
	sweep := `{"Points": [` + deadChipRequest(t) + `, {"Preset": "fb", "Network": "ResNet-18"}]}`
	_, url, _, _ := testCluster(t, 2, nil)
	cs, cb := postJSON(t, url+"/v1/sweep", sweep)
	ws, wb := postJSON(t, referenceWorker(t)+"/v1/sweep", sweep)
	if cs != http.StatusOK || ws != http.StatusOK {
		t.Fatalf("coordinator %d, worker %d\n%s\n%s", cs, ws, cb, wb)
	}
	if !bytes.Contains(wb, []byte(`"Error":`)) {
		t.Fatalf("the worker served the dead chip: %s", wb)
	}
	if !bytes.Equal(cb, wb) {
		t.Errorf("buffered sweep differs:\n%s\n%s", cb, wb)
	}
	_, url, _, _ = testCluster(t, 2, nil)
	got := streamLines(t, url, sweep)
	want := streamLines(t, referenceWorker(t), sweep)
	if len(got) != 2 || len(want) != 2 {
		t.Fatalf("coordinator streamed %d lines, worker %d, want 2 each", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("line %d differs:\n%s%s", i, got[i], want[i])
		}
	}
}
