package opt

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpec: an arbitrary /v1/optimize body is decoded the way the
// serving tier decodes it, defaulted, validated and identified. Every
// step may fail with an error, never a panic, and a spec that validates
// has an ID that survives its own JSON round trip — the spec a
// checkpoint's header stores must name the same search again.
func FuzzSpec(f *testing.F) {
	f.Add([]byte(`{"Preset": "fb", "Seed": 1}`))
	f.Add([]byte(`{"Preset": "ff", "Network": "all", "Strategy": "halving", "Generations": 3, "Population": 8}`))
	f.Add([]byte(`{"Config": {"Base": "fb", "Name": "x", "M": 32}, "Space": {"M": [8, 16]}, "Objectives": ["fps", "pap"]}`))
	f.Add([]byte(`{"Preset": "fb", "YieldTrials": 4, "Objectives": ["yield"], "AreaBudgetMM2": 150}`))
	f.Add([]byte(`{"Preset": "fb", "Space": {"M": [0, -4, 4, 4]}, "Population": 1}`))
	f.Add([]byte(`{"Preset": "fb", "Config": {}, "Network": "nope"}`))
	f.Add([]byte(`{"Bogus": 1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var spec Spec
		if err := dec.Decode(&spec); err != nil {
			return
		}
		spec = spec.WithDefaults()
		if err := spec.Validate(); err != nil {
			return
		}
		id, err := spec.ID()
		if err != nil {
			t.Fatalf("valid spec has no ID: %v", err)
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("encoded spec fails to decode: %v\n%s", err, enc)
		}
		if id2, err := back.WithDefaults().ID(); err != nil || id2 != id {
			t.Fatalf("ID %s after the round trip, %s before (%v)\n%s", id2, id, err, enc)
		}
	})
}
