// The conv-on-light workload.
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"refocus/internal/dsp"
	"refocus/internal/jtc"
	"refocus/internal/tensor"
)

// convOnLight is the conv-on-light workload: passes over a fixed seeded
// stack of conv layers on the default spectral JTC engine (8-bit, one
// worker per CPU), each output checked bit for bit against the serial
// reference engine. It is the only workload where jtc and dsp run.
type convOnLight struct {
	env
	ops  []convOperands
	ref  [][]float64 // reference output per layer, computed once
	eng  *jtc.Engine
	outs [][]byte // digest parts: one pass's output bits per layer

	// per-layer times of the last traced measurement, and its exact
	// optical pass count per stack pass
	layerTimes []samples
	passes     int
}

func newConvOnLight(e env) *convOnLight {
	return &convOnLight{env: e, ops: convInputs(e.seed)}
}

func (c *convOnLight) engineConfig() jtc.EngineConfig {
	cfg := jtc.DefaultEngineConfig()
	cfg.Parallelism = c.clients
	return cfg
}

// setup builds the engine and warms every FFT plan, scratch pool and
// worker the measured passes use with one full pass: the cold start a
// caller of the engine pays once.
func (c *convOnLight) setup(ctx context.Context, tr *tracer) error {
	c.eng = jtc.NewEngine(c.engineConfig())
	for i, l := range convStack {
		c.eng.Conv2D(c.ops[i].Input, c.ops[i].Weights, l.Stride)
	}
	return nil
}

func (c *convOnLight) close() { c.eng = nil }

// reference computes the serial golden outputs (spectrum reuse off, one
// worker) once per process, outside every timed region.
func (c *convOnLight) reference() {
	if c.ref != nil {
		return
	}
	cfg := c.engineConfig()
	cfg.DisableSpectrumReuse = true
	cfg.Parallelism = 1
	ref := jtc.NewEngine(cfg)
	c.ref = make([][]float64, len(convStack))
	for i, l := range convStack {
		c.ref[i] = ref.Conv2D(c.ops[i].Input, c.ops[i].Weights, l.Stride).Data
	}
}

// sameBits reports whether got equals want bit for bit.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

func floatBytes(xs []float64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

func (c *convOnLight) measure(ctx context.Context, d time.Duration, tr *tracer) (*measurement, error) {
	c.reference()
	m := &measurement{}
	lane := tr.lane(ctx)
	c.layerTimes = make([]samples, len(convStack))
	macs := convMACs()
	deadline := time.Now().Add(d)
	outs := make([]*tensor.Tensor, len(convStack))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		m.Attempted++
		c.eng.ResetStats()
		cpu0 := cpuTime()
		start := time.Now()
		for i, l := range convStack {
			sp := tr.span(lane, "jtc.Engine.Conv2D."+l.Name)
			t0 := time.Now()
			outs[i] = c.eng.Conv2D(c.ops[i].Input, c.ops[i].Weights, l.Stride)
			lt := time.Since(t0)
			sp.End()
			c.layerTimes[i] = append(c.layerTimes[i], lt)
		}
		lat := time.Since(start)
		m.CPU += cpuTime() - cpu0
		passes := c.eng.Stats().Passes
		if pass == 0 {
			c.passes = passes
		}
		ok := passes == c.passes
		if !ok {
			m.fail("pass %d: %d optical passes, pass 0 had %d", pass, passes, c.passes)
		}
		for i, l := range convStack {
			if !sameBits(outs[i].Data, c.ref[i]) {
				m.fail("pass %d layer %s: output differs from the serial reference engine", pass, l.Name)
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		m.Work += macs
		m.Rates = append(m.Rates, macs/lat.Seconds())
		m.Latency = append(m.Latency, lat)
		if c.outs == nil {
			for _, o := range outs {
				c.outs = append(c.outs, floatBytes(o.Data))
			}
		}
	}
	return m, nil
}

// physicalSlice is the small conv run through PhysicalJTC.Correlate:
// real field propagation for every 1-D pass, so it stays tiny.
var physicalSlice = convLayer{Name: "physical", C: 2, H: 8, W: 24, F: 2, K: 3, Stride: 1}

// physicalAperture is the simulated lens aperture in samples.
const physicalAperture = 1024

func (c *convOnLight) layers(ctx context.Context, tr *tracer, facts map[string]any) (map[string]float64, error) {
	v := map[string]float64{"jtc.optical_passes": float64(c.passes)}
	for i, l := range convStack {
		v["jtc.conv2d_ms."+l.Name] = ms(c.layerTimes[i].quantile(0.5))
	}
	lane := tr.lane(ctx)

	// One small layer on light, checked against the digital reference
	// within the field simulation's floating-point tolerance.
	rng := newRand(c.seed, streamConv+100)
	p := physicalSlice
	in := tensor.New(p.C, p.H, p.W)
	for i := range in.Data {
		in.Data[i] = rng.Float64()
	}
	w := tensor.Random(rng, p.F, p.C, p.K, p.K)
	cfg := jtc.DefaultEngineConfig()
	cfg.InputWaveguides = 64
	cfg.Quant = jtc.QuantConfig{}
	cfg.Parallelism = c.clients
	cfg.Correlator = jtc.NewPhysicalJTC(physicalAperture).Correlate
	eng := jtc.NewEngine(cfg)
	var phys samples
	var got *tensor.Tensor
	for r := 0; r < 3; r++ {
		sp := tr.span(lane, "jtc.PhysicalJTC.Conv2D")
		t0 := time.Now()
		got = eng.Conv2D(in, w, 1)
		phys = append(phys, time.Since(t0))
		sp.End()
	}
	want := tensor.Conv2DValid(in, w)
	if diff := tensor.MaxAbsDiff(got, want); diff > 1e-9*math.Max(want.MaxAbs(), 1) {
		return nil, fmt.Errorf("conv on the physical JTC differs from the digital reference by %g", diff)
	}
	v["jtc.conv2d_physical_ms"] = ms(phys.quantile(0.5))

	// The FFT lanes at the lengths the spectral engine uses: one row
	// batch per stack layer (rows padded to the next power of two), and
	// the complex plan at the physical aperture.
	type batch struct {
		plan *dsp.RealPlan
		src  []float64
		spec []complex128
	}
	var batches []batch
	for _, l := range convStack {
		n := dsp.NextPowerOfTwo(l.W)
		plan := dsp.PlanRFFT(n)
		src := make([]float64, l.H*n)
		for i := range src {
			src[i] = rng.Float64()
		}
		batches = append(batches, batch{plan, src, make([]complex128, l.H*plan.SpectrumLen())})
	}
	sp := tr.span(lane, "dsp.RealPlan.ForwardBatch")
	v["dsp.rfft_forward_batch_us"] = us(perCall(100*time.Millisecond, len(batches), func(i int) {
		batches[i].plan.ForwardBatch(batches[i].spec, batches[i].src)
	}))
	sp.End()
	sp = tr.span(lane, "dsp.RealPlan.InverseBatch")
	v["dsp.rfft_inverse_batch_us"] = us(perCall(100*time.Millisecond, len(batches), func(i int) {
		batches[i].plan.InverseBatch(batches[i].src, batches[i].spec)
	}))
	sp.End()
	// Forward and inverse (1/N-scaled) plans alternate, so the values
	// stay bounded however many calls the timer makes.
	plans := []*dsp.Plan{dsp.PlanFFT(physicalAperture, false), dsp.PlanFFT(physicalAperture, true)}
	x := make([]complex128, physicalAperture)
	for i := range x {
		x[i] = complex(rng.Float64(), 0)
	}
	sp = tr.span(lane, "dsp.Plan.Execute")
	v["dsp.fft_execute_us"] = us(perCall(100*time.Millisecond, len(plans), func(i int) { plans[i].Execute(x) }))
	sp.End()
	return v, nil
}

func (c *convOnLight) named(m *measurement) []namedMetric {
	return []namedMetric{
		{Name: "sim_macs_per_s", Value: m.throughput() / 1e6, Unit: "MMAC/s", Samples: len(m.Latency)},
		{Name: "stack_p50_ms", Value: ms(m.Latency.quantile(0.5)), Unit: "ms", Samples: len(m.Latency)},
	}
}

func (c *convOnLight) digest() string { return digestOf(c.outs) }
