package opt

import (
	"math/rand"
	"sort"
)

// halvingStrategy is successive halving adapted to a fixed-cost design
// space: rung g spends a budget of max(Population >> g, 2) points, and
// every rung after the first concentrates it on single-step refinements
// around the best half of the previous rung (ordered by constrained
// non-dominated rank over the whole history, ties broken by crowding).
// The shrinking rungs mean the strategy deliberately spends less than
// the Generations x Population budget — exploitation instead of volume.
type halvingStrategy struct{}

// Name returns "halving".
func (halvingStrategy) Name() string { return StrategyHalving }

// rungBudget is rung g's candidate count.
func rungBudget(population, gen int) int {
	n := population >> gen
	if n < 2 {
		n = 2
	}
	return n
}

// Propose returns a random first rung, then refinements around the top
// half of the previous rung.
func (halvingStrategy) Propose(rng *rand.Rand, pc ProposalContext) []Candidate {
	budget := rungBudget(pc.Spec.Population, pc.Gen)
	if budget > pc.Budget {
		budget = pc.Budget
	}
	if pc.Gen == 0 || len(pc.History) == 0 {
		out := make([]Candidate, budget)
		for i := range out {
			out[i] = pc.Random(rng)
		}
		return out
	}
	rank, crowd := pc.ranker.rank(pc.History)
	var prev []int
	for i, r := range pc.History {
		if r.Gen == pc.Gen-1 {
			prev = append(prev, i)
		}
	}
	if len(prev) == 0 {
		// Degenerate resume state; fall back to global survivors.
		for i := range pc.History {
			prev = append(prev, i)
		}
	}
	sort.SliceStable(prev, func(a, b int) bool {
		if rank[prev[a]] != rank[prev[b]] {
			return rank[prev[a]] < rank[prev[b]]
		}
		return crowd[prev[a]] > crowd[prev[b]]
	})
	keep := (len(prev) + 1) / 2
	survivors := prev[:keep]
	out := make([]Candidate, budget)
	for i := range out {
		out[i] = pc.Neighbor(rng, pc.History[survivors[i%keep]].Candidate)
	}
	return out
}
