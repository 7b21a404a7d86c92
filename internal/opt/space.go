package opt

import (
	"fmt"
	"math/rand"
	"sync"

	"refocus/internal/arch"
)

// grid is a spec's resolved search space: the base design point plus the
// four axis value lists, in Candidate index order.
type grid struct {
	base arch.SystemConfig
	axes [NumAxes][]int

	mu     sync.Mutex
	points map[Candidate]*gridPoint // cells materialized so far
}

// gridPoint is one cell's design point, materialized once however many
// candidates revisit the cell.
type gridPoint struct {
	once sync.Once
	cfg  arch.SystemConfig
	hash string
	// invalid is config's refusal of the cell; hashErr a failure to hash
	// a valid config.
	invalid, hashErr error
}

// newGrid resolves the spec's base config and axis lists. Call on the
// defaulted, validated form.
func newGrid(s Spec) (*grid, error) {
	base, err := s.ResolveConfig()
	if err != nil {
		return nil, err
	}
	return &grid{
		base:   base,
		axes:   [NumAxes][]int{s.Space.M, s.Space.NRFCU, s.Space.NLambda, s.Space.Reuses},
		points: make(map[Candidate]*gridPoint),
	}, nil
}

// dims returns the axis lengths.
func (g *grid) dims() [NumAxes]int {
	var d [NumAxes]int
	for i := range g.axes {
		d[i] = len(g.axes[i])
	}
	return d
}

// clamp forces every index of c into its axis range.
func (g *grid) clamp(c Candidate) Candidate {
	for i := range c {
		if c[i] < 0 {
			c[i] = 0
		}
		if c[i] >= len(g.axes[i]) {
			c[i] = len(g.axes[i]) - 1
		}
	}
	return c
}

// values resolves a candidate's axis indices to (M, NRFCU, NLambda,
// Reuses) values.
func (g *grid) values(c Candidate) (m, n, l, r int) {
	c = g.clamp(c)
	return g.axes[0][c[0]], g.axes[1][c[1]], g.axes[2][c[2]], g.axes[3][c[3]]
}

// config materializes a candidate as a named, validated design point.
// The name depends only on the axis values — never on the search — so
// the same point proposed by two different searches shares one canonical
// config hash and therefore one result-cache entry.
func (g *grid) config(c Candidate) (arch.SystemConfig, error) {
	m, n, l, r := g.values(c)
	cfg := g.base
	cfg.Name = fmt.Sprintf("opt-M%d-N%d-L%d-R%d", m, n, l, r)
	cfg.M = m
	cfg.NRFCU = n
	cfg.NLambda = l
	cfg.Reuses = r
	if err := cfg.Validate(); err != nil {
		return arch.SystemConfig{}, err
	}
	return cfg, nil
}

// point returns candidate c's design point and config hash, computing
// them on the cell's first visit. Safe for concurrent use.
func (g *grid) point(c Candidate) *gridPoint {
	c = g.clamp(c)
	g.mu.Lock()
	p, ok := g.points[c]
	if !ok {
		p = &gridPoint{}
		g.points[c] = p
	}
	g.mu.Unlock()
	p.once.Do(func() {
		if p.cfg, p.invalid = g.config(c); p.invalid == nil {
			p.hash, p.hashErr = arch.ConfigHash(p.cfg)
		}
	})
	return p
}

// random draws a uniform candidate.
func (g *grid) random(rng *rand.Rand) Candidate {
	var c Candidate
	for i := range c {
		c[i] = rng.Intn(len(g.axes[i]))
	}
	return c
}

// neighbor moves one uniformly chosen axis of c a single step up or
// down, clamped to the grid — the annealing move and the evolutionary
// mutation step.
func (g *grid) neighbor(rng *rand.Rand, c Candidate) Candidate {
	axis := rng.Intn(NumAxes)
	if rng.Intn(2) == 0 {
		c[axis]++
	} else {
		c[axis]--
	}
	return g.clamp(c)
}
