package opt

import "math/rand"

// evolveStrategy is the NSGA-II-style evolutionary search: parents are
// drawn from the whole evaluated history by binary tournament on
// (non-dominated rank, crowding distance), children are uniform
// crossovers with per-axis single-step mutation. The history doubles as
// the elite archive — the front is always computed over every evaluated
// point, so nothing is ever lost to generational replacement.
type evolveStrategy struct{}

// Name returns "evolve".
func (evolveStrategy) Name() string { return StrategyEvolve }

// mutationRate is the per-axis probability of a single-step mutation —
// one expected mutated axis per child.
const mutationRate = 1.0 / NumAxes

// immigrantFraction is the share of each generation drawn uniformly at
// random instead of bred: on a small discrete grid, pure exploitation
// collapses onto a few cells and loses front width (and hypervolume) to
// plain random sampling, so every generation keeps exploring.
const immigrantFraction = 0.25

// Propose returns an anchored first generation (grid corners plus
// random fill), then Budget children of the evaluated history: bred by
// binary tournament or from per-objective axis champions, plus a
// random-immigrant tail.
func (evolveStrategy) Propose(rng *rand.Rand, pc ProposalContext) []Candidate {
	if pc.Gen == 0 || len(pc.History) == 0 {
		out := make([]Candidate, pc.Budget)
		for i := range out {
			out[i] = pc.Random(rng)
		}
		// Deterministic anchors: the all-min and all-max grid corners.
		// Hypervolume lives or dies on front width, and the extreme
		// resource corners (which random sampling rarely lands on
		// exactly) anchor the throughput and efficiency ends of it.
		if pc.Budget >= 2 {
			var lo, hi Candidate
			for ax := 0; ax < NumAxes; ax++ {
				hi[ax] = pc.Dims[ax] - 1
			}
			out[0], out[1] = lo, hi
		}
		return out
	}
	rank, crowd := pc.ranker.rank(pc.History)
	tournament := func() Candidate {
		a, b := rng.Intn(len(pc.History)), rng.Intn(len(pc.History))
		if rank[b] < rank[a] || (rank[b] == rank[a] && crowd[b] > crowd[a]) {
			a = b
		}
		return pc.History[a].Candidate
	}
	champions := axisChampions(pc.History, pc.ranker.vecs, len(pc.Spec.Objectives))
	parent := func() Candidate {
		// Half the picks breed from an axis champion — the history
		// point best on one objective — pushing the front's corners
		// outward; the rest follow NSGA-II tournament pressure.
		if len(champions) > 0 && rng.Intn(2) == 0 {
			return champions[rng.Intn(len(champions))]
		}
		return tournament()
	}
	out := make([]Candidate, pc.Budget)
	immigrants := int(float64(pc.Budget) * immigrantFraction)
	for i := range out {
		if i >= pc.Budget-immigrants {
			out[i] = pc.Random(rng)
			continue
		}
		p1, p2 := parent(), parent()
		var child Candidate
		for ax := 0; ax < NumAxes; ax++ {
			if rng.Intn(2) == 0 {
				child[ax] = p1[ax]
			} else {
				child[ax] = p2[ax]
			}
		}
		for ax := 0; ax < NumAxes; ax++ {
			if rng.Float64() < mutationRate {
				if rng.Intn(2) == 0 {
					child[ax]++
				} else {
					child[ax]--
				}
			}
		}
		out[i] = pc.Clamp(child)
	}
	return out
}

// axisChampions returns, per objective, the valid feasible history
// candidate with the best value on that axis alone (canonical-order
// first on ties, so the set is deterministic). vecs[i] is hist[i]'s
// objective vector over nObj objectives.
func axisChampions(hist []CandidateResult, vecs [][]float64, nObj int) []Candidate {
	var champs []Candidate
	for k := 0; k < nObj; k++ {
		best := -1
		bestV := 0.0
		for i, r := range hist {
			if r.Invalid || !r.Feasible {
				continue
			}
			if v := vecs[i][k]; best < 0 || v > bestV {
				best, bestV = i, v
			}
		}
		if best >= 0 {
			champs = append(champs, hist[best].Candidate)
		}
	}
	return champs
}
