package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"refocus/internal/job"
	"refocus/internal/opt"
)

// TestJobTierErrors: a busy job manager answers 429 with Retry-After and
// its kind's own message; an unknown job ID answers 404 naming the tier
// and the kind.
func TestJobTierErrors(t *testing.T) {
	s, url := testServer(t, Config{})
	tier := &JobTier{Name: "serve", DecodeBody: s.decodeBody, WriteJSON: s.writeJSON, WriteError: s.writeError}
	full := job.NewManager[*opt.Job](0, "opt", "searches")
	defer full.Close()
	start := func(opt.Spec) (*opt.Job, bool, error) { return full.Start("id", nil, nil) }

	rec := httptest.NewRecorder()
	startJob(tier, rec, httptest.NewRequest("POST", "/v1/optimize", strings.NewReader(searchBody)), start, (*opt.Job).Status, opt.StreamUpdates)
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "5" || er.Error != "opt: too many active searches" {
		t.Errorf("busy: %d Retry-After=%q %+v", rec.Code, rec.Header().Get("Retry-After"), er)
	}

	code, body := get(t, url+"/v1/robustness/nope")
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusNotFound || er.Error != `serve: no campaign "nope"` {
		t.Errorf("unknown campaign: %d %+v", code, er)
	}
}
