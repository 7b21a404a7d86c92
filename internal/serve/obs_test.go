package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promSampleLine matches one exposition sample: name, optional label
// block, and a float value.
var promSampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$`)

// scrapeProm fetches the Prometheus exposition and returns the raw body.
func scrapeProm(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestPrometheusExpositionFormat is the golden-format test: every
// non-comment line parses as a sample, every family carries a HELP and a
// TYPE comment before its first sample, and histogram buckets are
// cumulative with the +Inf bucket equal to _count.
func TestPrometheusExpositionFormat(t *testing.T) {
	_, url := testServer(t, Config{})
	post(t, url+"/v1/evaluate", `{"Preset": "fb", "Network": "ResNet-18"}`)
	post(t, url+"/v1/evaluate", `{"Preset": "fb", "Network": "ResNet-18"}`)
	body := scrapeProm(t, url)

	helped := map[string]bool{}
	typed := map[string]bool{}
	samples := map[string]float64{}
	var order []string
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if h, ok := strings.CutPrefix(line, "# HELP "); ok {
			helped[strings.SplitN(h, " ", 2)[0]] = true
			continue
		}
		if ty, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(ty)
			if len(f) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch f[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("TYPE %q has unknown kind %q", f[0], f[1])
			}
			typed[f[0]] = true
			continue
		}
		m := promSampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line does not parse as a sample: %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil && m[3] != "+Inf" {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[m[1]+m[2]] = v
		order = append(order, m[1])
	}
	if len(samples) == 0 {
		t.Fatal("exposition contained no samples")
	}
	for _, name := range order {
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !helped[family] || !typed[family] {
			t.Errorf("sample %s missing HELP/TYPE for family %s (HELP %v, TYPE %v)",
				name, family, helped[family], typed[family])
		}
	}

	// The two evaluate requests did one real evaluation (second was a
	// cache hit), so the evaluate histogram must have observed exactly 1.
	if got := samples["refocus_evaluate_seconds_count"]; got != 1 {
		t.Errorf("refocus_evaluate_seconds_count = %g, want 1 (one miss, one hit)", got)
	}

	// Buckets must be cumulative (monotone nondecreasing in le) and end
	// at the +Inf bucket equal to _count.
	prev := -1.0
	for _, le := range []string{"0.001", "0.01", "0.1", "1", "10", "+Inf"} {
		key := fmt.Sprintf(`refocus_evaluate_seconds_bucket{le="%s"}`, le)
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket %s in:\n%s", key, body)
		}
		if v < prev {
			t.Errorf("bucket le=%s is %g, below previous %g — not cumulative", le, v, prev)
		}
		prev = v
	}
	if inf := samples[`refocus_evaluate_seconds_bucket{le="+Inf"}`]; inf != samples["refocus_evaluate_seconds_count"] {
		t.Errorf("+Inf bucket %g != count %g", inf, samples["refocus_evaluate_seconds_count"])
	}

	if v := samples[`refocus_requests_total{endpoint="/v1/evaluate"}`]; v != 2 {
		t.Errorf(`refocus_requests_total{endpoint="/v1/evaluate"} = %g, want 2`, v)
	}
	if _, ok := samples["refocus_cache_capacity"]; !ok {
		t.Error("cache-capacity gauge missing from exposition")
	}
}

// TestResolveStageObservedOncePerRequest: every evaluate request, hit
// or miss, observes the resolve stage exactly once, next to the stage
// families that were already exposed.
func TestResolveStageObservedOncePerRequest(t *testing.T) {
	s, url := testServer(t, Config{})
	for want := int64(1); want <= 2; want++ { // a miss, then a hit
		if status, body := post(t, url+"/v1/evaluate", `{"Preset": "fb", "Network": "all"}`); status != http.StatusOK {
			t.Fatalf("evaluate: %d %s", status, body)
		}
		if got := s.metrics.resolve.Count(); got != want {
			t.Fatalf("after request %d the resolve stage observed %d times", want, got)
		}
	}
	body := scrapeProm(t, url)
	if !strings.Contains(body, "\nrefocus_resolve_seconds_count 2\n") {
		t.Errorf("exposition lacks refocus_resolve_seconds_count 2:\n%s", body)
	}
	for _, stage := range []string{"resolve", "cache_lookup", "queue_wait", "evaluate", "encode"} {
		if !strings.Contains(body, "# TYPE refocus_"+stage+"_seconds histogram\n") {
			t.Errorf("exposition lacks the %s stage histogram", stage)
		}
	}
}

// TestMetricsJSONSchemaFrozen pins the JSON /metrics payload to its
// pre-Prometheus schema: exactly the historical top-level keys, with the
// historical nested shapes — dashboards and the CI e2e jobs parse these
// names, so a rename here is a breaking change.
func TestMetricsJSONSchemaFrozen(t *testing.T) {
	_, url := testServer(t, Config{})
	post(t, url+"/v1/evaluate", `{"Preset": "fb", "Network": "ResNet-18"}`)
	_, body := get(t, url+"/metrics")

	var snap map[string]json.RawMessage
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	want := []string{"InFlight", "Evaluations", "Shed", "ChaosInjected", "ChaosSlowed", "Robustness", "Optimize", "Cache", "Endpoints"}
	if len(snap) != len(want) {
		t.Errorf("top-level keys changed: got %d keys in %s", len(snap), body)
	}
	for _, k := range want {
		if _, ok := snap[k]; !ok {
			t.Errorf("missing frozen top-level key %q", k)
		}
	}
	var cache map[string]json.RawMessage
	if err := json.Unmarshal(snap["Cache"], &cache); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"Hits", "Misses", "Entries", "Capacity"} {
		if _, ok := cache[k]; !ok {
			t.Errorf("missing frozen Cache key %q", k)
		}
	}
	var eps map[string]map[string]json.RawMessage
	if err := json.Unmarshal(snap["Endpoints"], &eps); err != nil {
		t.Fatal(err)
	}
	ep, ok := eps["/v1/evaluate"]
	if !ok {
		t.Fatalf("endpoints missing /v1/evaluate: %s", snap["Endpoints"])
	}
	for _, k := range []string{"Requests", "Errors", "MeanLatencyMillis", "Latency"} {
		if _, ok := ep[k]; !ok {
			t.Errorf("missing frozen endpoint key %q", k)
		}
	}
	var latency map[string]int64
	if err := json.Unmarshal(ep["Latency"], &latency); err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"<1ms", "<10ms", "<100ms", "<1s", "<10s", ">=10s"} {
		if _, ok := latency[label]; !ok {
			t.Errorf("missing frozen latency bucket label %q", label)
		}
	}
}

// TestEvaluateTraceQuery exercises ?trace=1: the response carries a
// Chrome trace whose spans cover the request stages, and the plain path
// stays trace-free (no payload growth for normal clients).
func TestEvaluateTraceQuery(t *testing.T) {
	_, url := testServer(t, Config{})
	status, body := post(t, url+"/v1/evaluate?trace=1", `{"Preset": "fb", "Network": "ResNet-18"}`)
	if status != http.StatusOK {
		t.Fatalf("traced evaluate: %d %s", status, body)
	}
	var resp struct {
		Trace struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				Dur  float64        `json:"dur"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range resp.Trace.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has phase %q, want complete events (X)", ev.Name, ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"serve.request", "serve.resolve", "serve.evaluate", "arch.evaluate"} {
		if !names[want] {
			t.Errorf("trace missing span %q (got %v)", want, names)
		}
	}

	status, body = post(t, url+"/v1/evaluate", `{"Preset": "fb", "Network": "AlexNet"}`)
	if status != http.StatusOK {
		t.Fatalf("plain evaluate: %d %s", status, body)
	}
	if bytes.Contains(body, []byte("traceEvents")) {
		t.Error("untraced response should omit the Trace field entirely")
	}
}

// TestRequestIDCorrelation checks the correlation chain: the response
// header names the request, the traced root span carries the same ID,
// and the structured log line mentions it too.
func TestRequestIDCorrelation(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	_, url := testServer(t, Config{Logger: logger})

	resp, err := http.Post(url+"/v1/evaluate?trace=1", "application/json",
		strings.NewReader(`{"Preset": "fb", "Network": "ResNet-18"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reqID := resp.Header.Get("X-Request-ID")
	if reqID == "" {
		t.Fatal("response missing X-Request-ID header")
	}
	var out struct {
		Trace struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range out.Trace.TraceEvents {
		if ev.Name == "serve.request" {
			found = true
			if got := ev.Args["request_id"]; got != reqID {
				t.Errorf("root span request_id = %v, want header value %q", got, reqID)
			}
		}
	}
	if !found {
		t.Error("trace missing the serve.request root span")
	}
	if !strings.Contains(logBuf.String(), reqID) {
		t.Errorf("structured log does not mention request id %q:\n%s", reqID, logBuf.String())
	}
	if !strings.Contains(logBuf.String(), "/v1/evaluate") {
		t.Errorf("structured log does not mention the path:\n%s", logBuf.String())
	}
}

// TestRequestIDsAreUnique spot-checks that concurrent-ish requests each
// get their own ID (the sequence suffix moves).
func TestRequestIDsAreUnique(t *testing.T) {
	_, url := testServer(t, Config{})
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-ID")
		if id == "" || seen[id] {
			t.Fatalf("request %d: id %q empty or repeated", i, id)
		}
		seen[id] = true
	}
}
