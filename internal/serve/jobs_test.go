package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"refocus/internal/arch"
	"refocus/internal/job"
	"refocus/internal/opt"
	"refocus/internal/robust"
	"refocus/internal/sim"
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

// TestJobPointsMatchRequests: a job's typed point and the evaluate
// request the job used to send for it are the same point. Over seeded
// samples of the default search space and the sampled fault sets of a
// campaign, both paths write the same cache keys and answer
// byte-identical responses (so reports are bit-identical), the typed
// point encodes to exactly that request for a shard, a config survives
// its -config-file round trip with its hash, and each path's results
// are cache hits for the other.
func TestJobPointsMatchRequests(t *testing.T) {
	ctx := context.Background()
	search := opt.Spec{Preset: "fb", Network: "all", Seed: 1}.WithDefaults()
	sp := search.Space
	rng := rand.New(rand.NewSource(1))
	for checked := 0; checked < 8; {
		cfg := arch.FB()
		cfg.M, cfg.NRFCU = sp.M[rng.Intn(len(sp.M))], sp.NRFCU[rng.Intn(len(sp.NRFCU))]
		cfg.NLambda, cfg.Reuses = sp.NLambda[rng.Intn(len(sp.NLambda))], sp.Reuses[rng.Intn(len(sp.Reuses))]
		cfg.Name = fmt.Sprintf("opt-M%d-N%d-L%d-R%d", cfg.M, cfg.NRFCU, cfg.NLambda, cfg.Reuses)
		if cfg.Validate() != nil {
			continue
		}
		checked++
		hash, err := arch.ConfigHash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := arch.ConfigJSON(cfg)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := sim.LoadConfig(data)
		if err != nil {
			t.Fatal(err)
		}
		if h, _ := arch.ConfigHash(loaded); h != hash {
			t.Errorf("%s: hash %s after the -config-file round trip, %s before", cfg.Name, h, hash)
		}
		checkJobPoint(t, cfg.Name, EvaluateRequest{Config: data, Network: search.Network}, func(tier *JobTier) error {
			_, err := tier.OptimizeEval(ctx, search, cfg, hash)
			return err
		})
	}

	campaign := robust.Spec{Preset: "fb", Network: "ResNet-18", Severities: []float64{0, 1, 4}, Trials: 4, Seed: 7}.WithDefaults()
	base, err := campaign.ResolveConfig()
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for sev, severity := range campaign.Severities {
		for trial := 0; trial < campaign.Trials; trial++ {
			seed := robust.TrialSeed(campaign.Seed, sev, trial)
			fs := campaign.ScaledModel(severity).Sample(rand.New(rand.NewSource(seed)), base)
			fs.Name = fmt.Sprintf("sev%d-trial%d", sev, trial)
			if _, _, err := fs.Degrade(base); err != nil {
				continue // a dead chip is a yield loss; the runner never evaluates it
			}
			req := EvaluateRequest{Preset: campaign.Preset, Network: campaign.Network}
			if !fs.IsZero() {
				degraded++
				if req.Faults, err = json.Marshal(fs.Canonical()); err != nil {
					t.Fatal(err)
				}
			}
			checkJobPoint(t, fs.Name, req, func(tier *JobTier) error {
				_, err := tier.CampaignEval(ctx, campaign, fs, "trial")
				return err
			})
		}
	}
	if degraded == 0 {
		t.Fatal("no sampled trial carried a fault set")
	}
}

// checkJobPoint runs one job evaluation through a worker's typed path
// and req through the request path, each on a fresh server, and checks
// that they are the same point (see TestJobPointsMatchRequests).
func checkJobPoint(t *testing.T, name string, req EvaluateRequest, run func(*JobTier) error) {
	t.Helper()
	ctx := context.Background()
	typedStore := &recordingStore{reportCache: newReportCache(64)}
	typed := New(Config{Store: typedStore})
	defer typed.Close()
	reqStore := &recordingStore{reportCache: newReportCache(64)}
	plain := New(Config{Store: reqStore})
	defer plain.Close()

	// tierOver is the worker's job tier over s, remembering the point it
	// was handed and the answer.
	var point JobPoint
	var resp EvaluateResponse
	tierOver := func(s *Server) *JobTier {
		return &JobTier{
			Name: "serve",
			Evaluate: func(ctx context.Context, p JobPoint, _ string) (EvaluateResponse, error) {
				point = p
				var err error
				resp, err = s.evaluateResolved(ctx, p.Point)
				return resp, err
			},
			Shed: func(error) (time.Duration, bool) { return 0, false },
		}
	}
	if err := run(tierOver(typed)); err != nil {
		t.Fatalf("%s: typed path: %v", name, err)
	}
	typedResp := resp
	wire, err := point.Request()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, wire), mustJSON(t, req); !bytes.Equal(got, want) {
		t.Errorf("%s: shard request\n%s\nwant\n%s", name, got, want)
	}
	reqResp, err := plain.evaluatePoint(ctx, req)
	if err != nil {
		t.Fatalf("%s: request path: %v", name, err)
	}
	if !slices.Equal(typedStore.puts, reqStore.puts) {
		t.Errorf("%s: cache keys %q, request path wrote %q", name, typedStore.puts, reqStore.puts)
	}
	if got, want := mustJSON(t, typedResp), mustJSON(t, reqResp); !bytes.Equal(got, want) {
		t.Errorf("%s: typed response differs from the request path's:\n%s\n%s", name, got, want)
	}

	hit, err := typed.evaluatePoint(ctx, req)
	if err != nil || hit.CacheMisses != 0 {
		t.Errorf("%s: request after the job's evaluation: %d misses, %v", name, hit.CacheMisses, err)
	}
	if err := run(tierOver(plain)); err != nil || resp.CacheMisses != 0 {
		t.Errorf("%s: job evaluation after the request: %d misses, %v", name, resp.CacheMisses, err)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
