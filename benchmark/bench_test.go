package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"refocus/internal/arch"
	"refocus/internal/nn"
	"refocus/internal/opt"
	"refocus/internal/serve"
)

func nudge(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

func TestPerturbedOutputsAreFlagged(t *testing.T) {
	t.Run("evaluate report", func(t *testing.T) {
		req := hotRequests(1)[2] // network "all": five reports
		cfg, nets, err := resolveHot(req)
		if err != nil {
			t.Fatal(err)
		}
		reports, err := arch.EvaluateAll(cfg, nets)
		if err != nil {
			t.Fatal(err)
		}
		resp := serve.EvaluateResponse{Config: cfg.Name, CacheHits: len(nets), Reports: reports}
		if resp.ConfigHash, err = arch.ConfigHash(cfg); err != nil {
			t.Fatal(err)
		}
		for _, n := range nets {
			resp.Networks = append(resp.Networks, n.Name)
			resp.NetworkHashes = append(resp.NetworkHashes, nn.MustNetworkHash(n))
		}
		body, _ := json.Marshal(resp)
		if err := checkHotBody(req, body); err != nil {
			t.Fatalf("correct body flagged: %v", err)
		}
		resp.Reports[3].Energy = nudge(resp.Reports[3].Energy)
		body, _ = json.Marshal(resp)
		if err := checkHotBody(req, body); err == nil {
			t.Fatal("a report one ulp off was not flagged")
		}
	})

	t.Run("sweep report", func(t *testing.T) {
		for _, p := range sweepRequest(1, 0)[:4] { // preset and inline forms
			reports, err := arch.EvaluateAll(p.Cfg, p.Nets)
			if err != nil {
				t.Fatal(err)
			}
			data, _ := json.Marshal(reports)
			if err := checkSweepPoint(p, sha256.Sum256(data)); err != nil {
				t.Fatalf("correct point flagged: %v", err)
			}
			reports[0].FPS = nudge(reports[0].FPS)
			data, _ = json.Marshal(reports)
			if err := checkSweepPoint(p, sha256.Sum256(data)); err == nil {
				t.Fatal("a report one ulp off was not flagged")
			}
		}
	})

	t.Run("search front", func(t *testing.T) {
		spec := opt.Spec{Preset: "fb", Network: "all", Strategy: opt.StrategyEvolve, Generations: 2, Population: 8, Seed: 3}
		mgr, err := opt.NewManager(opt.ManagerConfig{Eval: opt.DirectEval()})
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		job, _, err := mgr.Start(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		st := job.Status()
		if err := checkSearch(spec, &st); err != nil {
			t.Fatalf("correct search flagged: %v", err)
		}
		perturbed := func(f func(st *opt.StatusResponse)) *opt.StatusResponse {
			c := st
			c.Front = append([]opt.FrontPoint(nil), st.Front...)
			f(&c)
			return &c
		}
		cases := map[string]*opt.StatusResponse{
			"metric one ulp off": perturbed(func(s *opt.StatusResponse) { s.Front[0].Metrics.PAP = nudge(s.Front[0].Metrics.PAP) }),
			"dominated point": perturbed(func(s *opt.StatusResponse) {
				p := s.Front[0]
				p.Metrics.FPS /= 2
				p.Metrics.FPSPerWatt /= 2
				p.Metrics.FPSPerMM2 /= 2
				p.Metrics.PAP /= 2
				s.Front = append(s.Front, p)
			}),
			"short of budget": perturbed(func(s *opt.StatusResponse) { s.CompletedPoints-- }),
			"not done":        perturbed(func(s *opt.StatusResponse) { s.Status = opt.StatusFailed }),
		}
		for name, c := range cases {
			if err := checkSearch(spec, c); err == nil {
				t.Errorf("%s: not flagged", name)
			}
		}
	})

	t.Run("conv tensor", func(t *testing.T) {
		if testing.Short() {
			t.Skip("runs the serial reference engine over the whole stack")
		}
		c := newConvOnLight(env{seed: 1, clients: 2})
		if err := c.setup(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		c.reference()
		c.ref[2][7] = nudge(c.ref[2][7])
		m, err := c.measure(context.Background(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.Failed != 1 || m.Work != 0 {
			t.Fatalf("a reference one ulp off: failed %d, work %g; want 1 failure and no work", m.Failed, m.Work)
		}
	})
}

func TestInputsFollowTheSeed(t *testing.T) {
	same := func(a, b any) bool {
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		return bytes.Equal(ja, jb)
	}
	reqs := func(pts []sweepPoint) []serve.EvaluateRequest {
		var out []serve.EvaluateRequest
		for _, p := range pts {
			out = append(out, p.Req)
		}
		return out
	}
	type gen struct {
		name string
		at   func(seed int64) any
	}
	gens := []gen{
		{"evaluate-hot", func(s int64) any { return hotRequests(s) }},
		{"sweep-cold", func(s int64) any { return reqs(sweepRequest(s, 5)) }},
		{"search-evolve", func(s int64) any { return searchSpec(s, 1) }},
		{"conv-on-light", func(s int64) any { return convInputs(s) }},
	}
	for _, g := range gens {
		if !same(g.at(7), g.at(7)) {
			t.Errorf("%s: the same seed gave different inputs", g.name)
		}
		if same(g.at(7), g.at(8)) {
			t.Errorf("%s: different seeds gave the same inputs", g.name)
		}
	}
	if searchSpec(7, 0).Seed == searchSpec(7, 1).Seed {
		t.Error("two searches of one run share a seed")
	}
	if same(reqs(sweepRequest(7, 0)), reqs(sweepRequest(7, 1))) {
		t.Error("two sweeps of one run are identical")
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests hold the
// program to.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func specsOf(entries []struct{ Name, Unit string }) []metricSpec {
	out := make([]metricSpec, len(entries))
	for i, e := range entries {
		out[i] = metricSpec{e.Name, e.Unit}
	}
	return out
}

func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if got := specsOf(f.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, program prints %v", got, endToEnd)
	}
	if got := specsOf(f.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, program prints %v", got, perLayer)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads in BENCHMARK.json %v, program runs %v", names, workloadNames)
	}
	data, err := os.ReadFile("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	var recs struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatal(err)
	}
	names = nil
	for _, w := range recs.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads.json records %v, program runs %v", names, workloadNames)
	}
}

func TestSliceRatesSpreadWorkOverOperations(t *testing.T) {
	s := time.Second
	ops := []opSpan{
		{from: 0, to: s / 2, work: 10},         // all in slice 0
		{from: s / 2, to: 3 * s / 2, work: 20}, // half in slice 0, half in slice 1
		{from: 2 * s, to: 2 * s, work: 5},      // instantaneous, slice 2
		{from: 5 * s / 2, to: 4 * s, work: 30}, // two thirds past the window
	}
	got := sliceRates(ops, 3*s+s/4)
	want := []float64{20, 10, 15}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sliceRates = %v, want %v", got, want)
	}
	if got := sliceRates(ops[:1], s/2); !reflect.DeepEqual(got, []float64{20}) {
		t.Errorf("a half-second window = %v, want one interval at 20/s", got)
	}
}

func TestBuildMetricsRejectsMissingAndExtra(t *testing.T) {
	specs := []metricSpec{{"a_ms", "ms"}, {"b", "count"}}
	if _, err := buildMetrics(specs, map[string]float64{"a_ms": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := buildMetrics(specs, map[string]float64{"a_ms": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an unlisted metric was accepted")
	}
	if _, err := buildMetrics(specs, map[string]float64{"a_ms": math.NaN(), "b": 2}); err == nil {
		t.Error("a NaN metric was accepted")
	}
}

// runBench runs the benchmark with the flags BENCHMARK.json's command
// receives and returns its last two stdout lines, decoded.
func runBench(t *testing.T, args ...string) (record, map[string]any) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append(args, "-seed", "4", "-out", t.TempDir())
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("want a record and a result line, got %q", out.String())
	}
	var rec record
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
		t.Fatal(err)
	}
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return rec, res
}

func checkPrinted(t *testing.T, res map[string]any, specs []metricSpec) {
	t.Helper()
	keys := make([]string, 0, len(res))
	for k := range res {
		keys = append(keys, k)
	}
	if len(keys) != 4 || res["correct"] != true || res["failed"] != 0.0 || res["attempted"].(float64) < 1 {
		t.Fatalf("result line %v", res)
	}
	metrics := res["metrics"].(map[string]any)
	if len(metrics) != len(specs) {
		t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := metrics[s.Name].(map[string]any)
		if !ok || m["unit"] != s.Unit {
			t.Errorf("metric %s: printed %v, want unit %s", s.Name, metrics[s.Name], s.Unit)
		}
	}
}

func TestPrintedMetricsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	rec, res := runBench(t, "-workload", "evaluate-hot", "-seconds", "1", "-trace", "0")
	checkPrinted(t, res, specsOf(f.EndToEnd))
	p := rec.Provenance
	if rec.Seed != 4 || rec.OutputDigest == "" || p.Source == "" || p.CPU == "" || p.NProc < 1 || p.GOMAXPROCS < 1 || p.GoVersion == "" {
		t.Errorf("record lacks provenance, seed or digest: %+v", rec)
	}
	if testing.Short() {
		return
	}
	rec, res = runBench(t, "-workload", "conv-on-light", "-seconds", "1", "-trace", "1")
	checkPrinted(t, res, specsOf(f.PerLayer))
	if rec.TraceFile == "" {
		t.Fatal("traced run named no trace file")
	}
	data, err := os.ReadFile(rec.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct{ TraceEvents []struct{ Name string } }
	if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("trace file is not a Chrome trace with events: %v", err)
	}
}
