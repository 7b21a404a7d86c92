package opt

import (
	"math"
	"sync"
	"testing"

	"refocus/internal/arch"
	"refocus/internal/nn"
)

// TestGridPointMemoMatchesConfig: concurrent visits to the same cells
// all get the config and hash a fresh materialization gives, and an
// invalid cell's refusal is config's error, word for word.
func TestGridPointMemoMatchesConfig(t *testing.T) {
	spec := Spec{Preset: "fb", Space: Space{Reuses: []int{0, 15}}}.WithDefaults()
	g, err := newGrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := []Candidate{{0, 0, 0, 0}, {0, 0, 0, 1}, {4, 7, 2, 1}, {2, 3, 1, 0}}
	var wg sync.WaitGroup
	got := make([][]*gridPoint, 4)
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, c := range cells {
				got[w] = append(got[w], g.point(c))
			}
		}(w)
	}
	wg.Wait()
	for i, c := range cells {
		cfg, cerr := g.config(c)
		for w := range got {
			p := got[w][i]
			if p != got[0][i] {
				t.Errorf("cell %v materialized twice", c)
			}
			if cerr != nil {
				if p.invalid == nil || p.invalid.Error() != cerr.Error() {
					t.Errorf("cell %v: refusal %v, config says %v", c, p.invalid, cerr)
				}
				continue
			}
			hash, err := arch.ConfigHash(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if p.invalid != nil || p.hashErr != nil || p.cfg.Name != cfg.Name || p.hash != hash {
				t.Errorf("cell %v: memo %s %s (%v, %v), want %s %s", c, p.cfg.Name, p.hash, p.invalid, p.hashErr, cfg.Name, hash)
			}
		}
	}
	if got[0][1].invalid != nil || got[0][0].invalid == nil {
		t.Error("the test grid no longer has one valid and one invalid cell where expected")
	}
}

// TestEvaluateInvariantsOverDefaultSpace: over every cell of the
// default search space on the feedback preset, each of the five CNN
// benchmarks evaluates to positive, finite energy, power and area, and
// FPS never falls as N_RFCU grows with the other axes held.
func TestEvaluateInvariantsOverDefaultSpace(t *testing.T) {
	spec := Spec{Preset: "fb"}.WithDefaults()
	g, err := newGrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	dims := g.dims()
	if cells := dims[0] * dims[1] * dims[2] * dims[3]; cells != 600 {
		t.Fatalf("default space has %d cells, want 600", cells)
	}
	nets := nn.Benchmarks()
	positive := func(v float64) bool { return v > 0 && !math.IsInf(v, 0) }
	var c Candidate
	for c[0] = 0; c[0] < dims[0]; c[0]++ {
		for c[2] = 0; c[2] < dims[2]; c[2]++ {
			for c[3] = 0; c[3] < dims[3]; c[3]++ {
				prevFPS := make([]float64, len(nets))
				for c[1] = 0; c[1] < dims[1]; c[1]++ {
					cfg, err := g.config(c)
					if err != nil {
						t.Fatalf("cell %v: %v", c, err)
					}
					for i, net := range nets {
						r, err := arch.Evaluate(cfg, net)
						if err != nil {
							t.Fatalf("%s on %s: %v", net.Name, cfg.Name, err)
						}
						if !positive(r.Energy) || !positive(r.Power.Total()) || !positive(r.Area.Total()) {
							t.Errorf("%s on %s: energy %g J, power %g W, area %g m²; want positive and finite",
								net.Name, cfg.Name, r.Energy, r.Power.Total(), r.Area.Total())
						}
						if r.FPS < prevFPS[i] {
							t.Errorf("%s on %s: FPS %g fell below %g at the previous N_RFCU", net.Name, cfg.Name, r.FPS, prevFPS[i])
						}
						prevFPS[i] = r.FPS
					}
				}
			}
		}
	}
}
