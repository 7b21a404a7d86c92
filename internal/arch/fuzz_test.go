package arch

import (
	"testing"
)

// FuzzParseConfig: arbitrary bytes either fail to parse or give a design
// point that validates or fails with an error — never a panic — and that
// survives its own serialization: ConfigJSON reparses to the same
// ConfigHash. The hash keys the result cache, so a config whose identity
// drifted across the round trip would be served another point's report.
func FuzzParseConfig(f *testing.F) {
	for _, p := range Presets() {
		data, err := ConfigJSON(p.Build())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"Name": "x", "M": 32, "NRFCU": 11}`))
	f.Add([]byte(`{"Buffer": "feedback", "Reuses": 0}`))
	f.Add([]byte(`{"Buffer": "sideways"}`))
	f.Add([]byte(`{"M": -1, "NLambda": 1e300}`))
	f.Add([]byte(`{"Bogus": true}`))
	f.Add([]byte(`{} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseConfig(data)
		if err != nil {
			return
		}
		_ = c.Validate()
		hash, err := ConfigHash(c)
		if err != nil {
			return // unencodable values are refused by the hash, not by a panic
		}
		enc, err := ConfigJSON(c)
		if err != nil {
			t.Fatalf("config hashes but does not serialize: %v", err)
		}
		back, err := ParseConfig(enc)
		if err != nil {
			t.Fatalf("serialized config fails to reparse: %v\n%s", err, enc)
		}
		if h, err := ConfigHash(back); err != nil || h != hash {
			t.Fatalf("hash %s after the round trip, %s before (%v)", h, hash, err)
		}
	})
}
