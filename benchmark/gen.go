// Seeded input generation: every input a workload sends the program is a
// pure function of the workload seed.
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"refocus/internal/arch"
	"refocus/internal/nn"
	"refocus/internal/opt"
	"refocus/internal/serve"
	"refocus/internal/tensor"
)

// Every input the program sees is a pure function of the workload seed:
// each generator draws from its own stream, mixed from the seed and a
// stream label, so adding draws to one workload never shifts another's.
const (
	streamHot uint64 = iota + 1
	streamSweep
	streamSearch
	streamConv
)

// mix derives a sub-seed from a seed and a stream index (splitmix64).
func mix(seed int64, stream uint64) int64 {
	h := uint64(seed) + stream*0x9E3779B97F4A7C15
	h = (h ^ h>>30) * 0xBF58476D1CE4E5B9
	h = (h ^ h>>27) * 0x94D049BB133111EB
	return int64(h ^ h>>31)
}

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(mix(seed, stream)))
}

// hotDesignPoints is how many registry-named design points evaluate-hot
// draws; each is requested on every hotNetworks entry, so the key set
// (24) is far smaller than the worker's 4096-entry result cache.
const hotDesignPoints = 8

// hotNetworks fixes evaluate-hot's workload mix: one CNN, one
// transformer and the five-CNN "all" set, in equal shares for every seed.
var hotNetworks = []string{"ResNet-50", "BERT-base", "all"}

// hotRequests returns evaluate-hot's request set: seeded preset names
// (canonical or alias, any case the registry accepts) with a seeded
// batch-size override, crossed with hotNetworks.
func hotRequests(seed int64) []serve.EvaluateRequest {
	rng := newRand(seed, streamHot)
	var names []string
	for _, p := range arch.Presets() {
		names = append(names, p.Name)
		names = append(names, p.Aliases...)
	}
	batches := []int{1, 2, 4, 8, 16}
	seen := map[string]bool{}
	var reqs []serve.EvaluateRequest
	for len(seen) < hotDesignPoints {
		name := names[rng.Intn(len(names))]
		batch := batches[rng.Intn(len(batches))]
		cfg, err := arch.PresetByName(name)
		if err != nil {
			panic(err) // the names come from the registry itself
		}
		cfg.Batch = batch
		if cfg.Validate() != nil {
			continue
		}
		id := fmt.Sprintf("%s/%d", cfg.Name, batch)
		if seen[id] {
			continue
		}
		seen[id] = true
		for _, net := range hotNetworks {
			reqs = append(reqs, serve.EvaluateRequest{
				Preset:    name,
				Overrides: json.RawMessage(fmt.Sprintf(`{"Batch":%d}`, batch)),
				Network:   net,
			})
		}
	}
	return reqs
}

// sweepSize is the point count of one sweep-cold request.
const sweepSize = 32

// table4 is the paper's Table 4 design grid, the same one opt searches.
var table4 = struct{ M, NRFCU, NLambda, Reuses []int }{
	M:       []int{4, 8, 16, 32, 64},
	NRFCU:   []int{4, 8, 12, 16, 20, 24, 28, 32},
	NLambda: []int{1, 2, 4},
	Reuses:  []int{1, 3, 7, 15, 31},
}

// sweepPoint is one generated sweep-cold point with the in-process
// inputs its reference evaluation needs.
type sweepPoint struct {
	Req  serve.EvaluateRequest
	Cfg  arch.SystemConfig
	Nets []nn.Network
}

// sweepRequest returns the i-th sweep of the seeded sequence. Every
// point is a Table 4 grid point on ReFOCUS-FB under a name no other
// point uses, so each (config, network) pair misses every cache. Every
// fourth point travels as an inline Config plus an inline NetworkSpec
// (one of the five CNNs); the rest name the preset with overrides and
// evaluate network "all".
func sweepRequest(seed int64, i int) []sweepPoint {
	rng := rand.New(rand.NewSource(mix(mix(seed, streamSweep), uint64(i))))
	cnns := nn.Benchmarks()
	pts := make([]sweepPoint, 0, sweepSize)
	for len(pts) < sweepSize {
		cfg := arch.FB()
		cfg.Name = fmt.Sprintf("sweep-%x-%d-%d", uint64(seed), i, len(pts))
		cfg.M = table4.M[rng.Intn(len(table4.M))]
		cfg.NRFCU = table4.NRFCU[rng.Intn(len(table4.NRFCU))]
		cfg.NLambda = table4.NLambda[rng.Intn(len(table4.NLambda))]
		cfg.Reuses = table4.Reuses[rng.Intn(len(table4.Reuses))]
		if cfg.Validate() != nil {
			continue
		}
		fields := fmt.Sprintf(`"Name":%q,"M":%d,"NRFCU":%d,"NLambda":%d,"Reuses":%d`,
			cfg.Name, cfg.M, cfg.NRFCU, cfg.NLambda, cfg.Reuses)
		p := sweepPoint{Cfg: cfg}
		if len(pts)%4 == 3 {
			net := cnns[rng.Intn(len(cnns))]
			spec, err := nn.NetworkJSON(net)
			if err != nil {
				panic(err) // registry networks always encode
			}
			p.Req = serve.EvaluateRequest{
				Config:      json.RawMessage(`{"Base":"fb",` + fields + `}`),
				NetworkSpec: spec,
			}
			p.Nets = []nn.Network{net}
		} else {
			p.Req = serve.EvaluateRequest{
				Preset:    "fb",
				Overrides: json.RawMessage(`{` + fields + `}`),
				Network:   "all",
			}
			p.Nets = cnns
		}
		pts = append(pts, p)
	}
	return pts
}

// Search sizing: population 64 on network "all", with the generation
// count set so one search spends several seconds, most of it in opt's
// proposal and front computation.
const (
	searchPopulation  = 64
	searchGenerations = 10
)

// searchSpec returns the i-th search of the seeded sequence; each has a
// distinct seed, hence a distinct identity and checkpoint.
func searchSpec(seed int64, i int) opt.Spec {
	return opt.Spec{
		Name:        "bench-evolve",
		Preset:      "fb",
		Network:     "all",
		Strategy:    opt.StrategyEvolve,
		Generations: searchGenerations,
		Population:  searchPopulation,
		Seed:        mix(mix(seed, streamSearch), uint64(i)),
	}
}

// convLayer is one layer of the conv-on-light stack. Shapes are fixed
// (they name the per-layer metrics); only the data is seeded.
type convLayer struct {
	Name                  string
	C, H, W, F, K, Stride int
}

// convStack is a ResNet-style stack sized to about a second per pass
// on a 2-core host. "wide" has rows longer than the 256-waveguide tile,
// "down" is a stride-2 downsampling layer, and every kernel fits the 25
// weight waveguides (at most 5×5).
var convStack = []convLayer{
	{Name: "wide", C: 8, H: 12, W: 280, F: 16, K: 3, Stride: 1},
	{Name: "down", C: 64, H: 29, W: 29, F: 64, K: 3, Stride: 2},
	{Name: "body", C: 64, H: 28, W: 28, F: 128, K: 3, Stride: 1},
	{Name: "deep", C: 128, H: 14, W: 14, F: 128, K: 3, Stride: 1},
	{Name: "k5", C: 64, H: 14, W: 14, F: 64, K: 5, Stride: 1},
}

// convOperands are one layer's seeded operands: post-ReLU (non-negative)
// activations and signed weights.
type convOperands struct {
	Input, Weights *tensor.Tensor
}

func convInputs(seed int64) []convOperands {
	rng := newRand(seed, streamConv)
	ops := make([]convOperands, len(convStack))
	for i, l := range convStack {
		in := tensor.New(l.C, l.H, l.W)
		for j := range in.Data {
			in.Data[j] = rng.Float64()
		}
		ops[i] = convOperands{Input: in, Weights: tensor.Random(rng, l.F, l.C, l.K, l.K)}
	}
	return ops
}

// convMACs is the multiply-accumulate count of one pass over the stack
// at its output resolution.
func convMACs() float64 {
	total := 0.0
	for _, l := range convStack {
		oh := (l.H-l.K)/l.Stride + 1
		ow := (l.W-l.K)/l.Stride + 1
		total += float64(l.F * l.C * l.K * l.K * oh * ow)
	}
	return total
}
