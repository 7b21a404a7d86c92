package serve

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
)

// FuzzEvaluateRequest: an arbitrary /v1/evaluate body is decoded the
// way the handler decodes it (strict, size-capped) and resolved to its
// design point. Either step may refuse the input with an error, never a
// panic, and a resolved point names its config and every network with a
// content hash.
func FuzzEvaluateRequest(f *testing.F) {
	f.Add([]byte(`{"Preset": "fb", "Network": "ResNet-18"}`))
	f.Add([]byte(`{"Preset": "ff", "Network": "all", "Overrides": {"M": 32, "Name": "x"}}`))
	f.Add([]byte(`{"Config": {"Base": "fb", "Name": "c", "NRFCU": 8}, "Network": "AlexNet"}`))
	f.Add([]byte(`{"Preset": "fb", "NetworkSpec": {"Name": "t", "Layers": [{"Kind": "fc", "Name": "f", "In": 8, "Out": 8, "Tokens": 1}]}}`))
	f.Add([]byte(`{"Preset": "fb", "Network": "ResNet-18", "Faults": {"DeadRFCUs": [0, 1]}}`))
	f.Add([]byte(`{"Preset": "fb", "Faults": {"DeadRFCUs": [-1]}, "Overrides": {"M": -4}}`))
	f.Add([]byte(`{"Preset": "fb", "Config": {}, "Network": "nope"}`))
	f.Add([]byte(`{"Bogus": 1} {}`))
	s := New(Config{})
	defer s.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		var req EvaluateRequest
		r := httptest.NewRequest("POST", "/v1/evaluate", bytes.NewReader(data))
		if err := s.decodeBody(httptest.NewRecorder(), r, &req); err != nil {
			return
		}
		p, err := s.resolve(context.Background(), req)
		if err != nil {
			return
		}
		if p.ConfigHash == "" || len(p.Networks) == 0 || len(p.NetworkHashes) != len(p.Networks) {
			t.Fatalf("resolved point without identity: config hash %q, %d networks, %d hashes", p.ConfigHash, len(p.Networks), len(p.NetworkHashes))
		}
	})
}
