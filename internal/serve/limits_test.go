package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"refocus/internal/nn"
)

// tinySpec is a minimal valid inline network: three small fc layers
// (~49k MACs total — far under every default limit).
const tinySpec = `{"Name": "tiny", "Layers": [
	{"Kind": "fc", "Name": "f", "In": 128, "Out": 128, "Tokens": 1, "Repeat": 3}
]}`

// TestSpecLimitsRejectWith422: an inline spec past a configured limit gets
// a structured 422 naming the limit; the same spec under the limit passes.
func TestSpecLimitsRejectWith422(t *testing.T) {
	_, url := testServer(t, Config{Limits: SpecLimits{MaxLayers: 2}})
	status, body := post(t, url+"/v1/evaluate",
		`{"Preset": "fb", "NetworkSpec": `+tinySpec+`}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("over-limit spec: status %d, want 422\n%s", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("422 body is not the structured error payload: %v\n%s", err, body)
	}
	if er.Status != http.StatusUnprocessableEntity ||
		!strings.Contains(er.Error, "exceeds resource limits") ||
		!strings.Contains(er.Error, "3 layer instances > max 2") {
		t.Errorf("unexpected error payload: %+v", er)
	}

	// The defaults sit far above the tiny spec: it must evaluate cleanly.
	_, urlOK := testServer(t, Config{})
	if status, body := post(t, urlOK+"/v1/evaluate",
		`{"Preset": "fb", "NetworkSpec": `+tinySpec+`}`); status != http.StatusOK {
		t.Errorf("tiny spec under default limits: status %d\n%s", status, body)
	}
}

// TestSpecLimitsGMACs: the MAC budget is enforced independently of the
// layer count.
func TestSpecLimitsGMACs(t *testing.T) {
	_, url := testServer(t, Config{Limits: SpecLimits{MaxGMACs: 1e-9}})
	status, body := post(t, url+"/v1/evaluate",
		`{"Preset": "fb", "NetworkSpec": `+tinySpec+`}`)
	if status != http.StatusUnprocessableEntity || !strings.Contains(string(body), "GMACs") {
		t.Errorf("over-budget spec: status %d\n%s", status, body)
	}
}

// TestSpecLimitsSweepAndRegistryExempt: the limit also guards sweep
// points, and registry networks bypass it — they shipped with the binary.
func TestSpecLimitsSweepAndRegistryExempt(t *testing.T) {
	_, url := testServer(t, Config{Limits: SpecLimits{MaxLayers: 1}})
	status, body := post(t, url+"/v1/sweep",
		`{"Points": [{"Preset": "fb", "NetworkSpec": `+tinySpec+`}]}`)
	if status != http.StatusOK {
		t.Fatalf("sweep: %d %s", status, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 1 || !strings.Contains(sr.Points[0].Error, "exceeds resource limits") {
		t.Errorf("sweep point did not surface the limit error: %+v", sr.Points)
	}
	// ResNet-18 has far more than 1 layer, but registry names are trusted.
	if status, body := post(t, url+"/v1/evaluate",
		`{"Preset": "fb", "Network": "ResNet-18"}`); status != http.StatusOK {
		t.Errorf("registry network hit the inline-spec limit: %d %s", status, body)
	}
}

// routeKey computes RouteKey with default limits, failing the test on error.
func routeKey(t *testing.T, req EvaluateRequest) string {
	t.Helper()
	key, err := RouteKey(req, SpecLimits{})
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestRouteKeyInvariance: the route key is the design point. Requests
// resolving to the same config and fault set share a key however they
// were spelled (alias vs canonical preset, case-insensitive network
// names, inline spec vs the identical registry entry) and whatever
// networks they evaluate; a different config or fault set separates
// them.
func TestRouteKeyInvariance(t *testing.T) {
	base := routeKey(t, EvaluateRequest{Preset: "fb", Network: "ResNet-18"})
	if base == "" {
		t.Fatal("empty route key")
	}
	if k := routeKey(t, EvaluateRequest{Preset: "refocus", Network: "resnet-18"}); k != base {
		t.Errorf("alias spelling changed the key:\n%s\n%s", base, k)
	}
	spec, err := json.Marshal(nn.ResNet18())
	if err != nil {
		t.Fatal(err)
	}
	if k := routeKey(t, EvaluateRequest{Preset: "fb", NetworkSpec: spec}); k != base {
		t.Errorf("inline spec of the registry network changed the key:\n%s\n%s", base, k)
	}
	// Every network of one design point shares its key, so "all" and a
	// single network of the same point land on one shard.
	for _, req := range []EvaluateRequest{
		{Preset: "fb", Network: "FNet-base"},
		{Preset: "fb", Network: "all"},
		{Preset: "fb"},
		{Preset: "fb", NetworkSpec: json.RawMessage(tinySpec)},
	} {
		if k := routeKey(t, req); k != base {
			t.Errorf("%+v: networks of one design point split the key:\n%s\n%s", req, base, k)
		}
	}
	// Different design point or fault set → different keys.
	if k := routeKey(t, EvaluateRequest{Preset: "ff", Network: "ResNet-18"}); k == base {
		t.Error("different preset shares the key")
	}
	faulty := EvaluateRequest{Preset: "fb", Network: "ResNet-18",
		Faults: json.RawMessage(`{"DeadRFCUs": [0]}`)}
	fk := routeKey(t, faulty)
	if fk == base {
		t.Error("fault set shares the healthy key")
	}
	faulty.Faults = json.RawMessage(`{"DeadRFCUs": [1]}`)
	if k := routeKey(t, faulty); k == fk || k == base {
		t.Error("different fault sets share a key")
	}
	// A zero fault set is the healthy machine and keeps the healthy key.
	if k := routeKey(t, EvaluateRequest{Preset: "fb", Faults: json.RawMessage(`{}`)}); k != base {
		t.Errorf("zero fault set changed the key:\n%s\n%s", base, k)
	}
}

// TestRouteKeyErrorsKeepStatusTags: validation failures from RouteKey
// carry the same status classification the evaluate handler uses, so a
// coordinator can answer without a shard round trip.
func TestRouteKeyErrorsKeepStatusTags(t *testing.T) {
	_, err := RouteKey(EvaluateRequest{Preset: "no-such"}, SpecLimits{})
	if err == nil || StatusOf(err) != http.StatusBadRequest {
		t.Errorf("bad preset: status %d, err %v", StatusOf(err), err)
	}
	_, err = RouteKey(EvaluateRequest{Preset: "fb",
		NetworkSpec: json.RawMessage(tinySpec)}, SpecLimits{MaxLayers: 1})
	if err == nil || StatusOf(err) != http.StatusUnprocessableEntity {
		t.Errorf("over-limit spec: status %d, err %v", StatusOf(err), err)
	}
	for _, req := range []EvaluateRequest{
		{Preset: "fb", Network: "no-such-net"},
		{Preset: "fb", NetworkSpec: json.RawMessage(`{"Name": "x", "Layers": []}`)},
		{Preset: "fb", Network: "ResNet-18", NetworkSpec: json.RawMessage(tinySpec)},
	} {
		if _, err := RouteKey(req, SpecLimits{}); err == nil || StatusOf(err) != http.StatusBadRequest {
			t.Errorf("%+v: status %d, err %v", req, StatusOf(err), err)
		}
	}
}
