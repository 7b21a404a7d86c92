package opt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// randVec draws a vector with small-integer coordinates so dominance and
// exact ties both occur often.
func randVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = float64(rng.Intn(5))
	}
	return v
}

func TestDominatesBasics(t *testing.T) {
	if !Dominates([]float64{2, 2}, []float64{1, 2}) {
		t.Error("(2,2) should dominate (1,2)")
	}
	if Dominates([]float64{2, 1}, []float64{1, 2}) {
		t.Error("(2,1) must not dominate (1,2)")
	}
	if Dominates([]float64{1, 2}, []float64{1, 2}) {
		t.Error("dominance must be irreflexive")
	}
	if Dominates([]float64{1, 2}, []float64{1}) {
		t.Error("mismatched lengths must not dominate")
	}
}

// TestDominatesPartialOrder property-checks that strict dominance is a
// strict partial order: irreflexive, antisymmetric, transitive.
func TestDominatesPartialOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		dim := 2 + rng.Intn(3)
		a, b, c := randVec(rng, dim), randVec(rng, dim), randVec(rng, dim)
		if Dominates(a, a) {
			t.Fatalf("irreflexivity broken for %v", a)
		}
		if Dominates(a, b) && Dominates(b, a) {
			t.Fatalf("antisymmetry broken for %v, %v", a, b)
		}
		if Dominates(a, b) && Dominates(b, c) && !Dominates(a, c) {
			t.Fatalf("transitivity broken for %v, %v, %v", a, b, c)
		}
	}
}

// frontSet returns the front's member vectors as a canonical sorted set
// of encodings — the insertion-order-independent view of front
// membership.
func frontSet(points [][]float64) []string {
	idx := ParetoFront(points)
	out := make([]string, 0, len(idx))
	for _, i := range idx {
		s := ""
		for _, v := range points[i] {
			s += string(rune('a'+int(v))) + ","
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestFrontInvariantUnderInsertionOrder property-checks that the set of
// front member vectors does not depend on the order points are listed.
func TestFrontInvariantUnderInsertionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(10)
		points := make([][]float64, n)
		for i := range points {
			points[i] = randVec(rng, 3)
		}
		want := frontSet(points)
		shuffled := make([][]float64, n)
		copy(shuffled, points)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := frontSet(shuffled)
		if len(got) != len(want) {
			t.Fatalf("front size changed under shuffle: %v vs %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("front membership changed under shuffle: %v vs %v", got, want)
			}
		}
	}
}

// TestFrontInvariantUnderObjectivePermutation property-checks that
// permuting the objective axes permutes front members' coordinates but
// never changes which points are in the front.
func TestFrontInvariantUnderObjectivePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(10)
		dim := 3
		points := make([][]float64, n)
		for i := range points {
			points[i] = randVec(rng, dim)
		}
		perm := rng.Perm(dim)
		permuted := make([][]float64, n)
		for i, p := range points {
			q := make([]float64, dim)
			for k, pk := range perm {
				q[k] = p[pk]
			}
			permuted[i] = q
		}
		want := ParetoFront(points)
		got := ParetoFront(permuted)
		if len(want) != len(got) {
			t.Fatalf("front size changed under axis permutation: %v vs %v", got, want)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("front membership changed under axis permutation: %v vs %v", got, want)
			}
		}
	}
}

func TestFrontDropsDominatedAndDuplicates(t *testing.T) {
	points := [][]float64{{1, 1}, {2, 2}, {1, 3}, {2, 2}, {0, 0}}
	got := ParetoFront(points)
	want := []int{1, 2}
	if len(got) != len(want) {
		t.Fatalf("front = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("front = %v, want %v", got, want)
		}
	}
}

func TestHypervolumeKnownValues(t *testing.T) {
	ref := []float64{0, 0}
	// Two rectangles 3x1 and 1x3 overlapping in the unit square.
	hv := Hypervolume([][]float64{{3, 1}, {1, 3}}, ref)
	if math.Abs(hv-5) > 1e-12 {
		t.Errorf("2D hypervolume = %g, want 5", hv)
	}
	// A dominated point adds nothing.
	hv2 := Hypervolume([][]float64{{3, 1}, {1, 3}, {1, 1}}, ref)
	if math.Abs(hv2-5) > 1e-12 {
		t.Errorf("dominated point changed hypervolume: %g", hv2)
	}
	// Points at or below the reference contribute nothing.
	if hv := Hypervolume([][]float64{{0, 5}, {-1, 2}}, ref); hv != 0 {
		t.Errorf("points outside the box contributed %g", hv)
	}
	// 3D cube.
	if hv := Hypervolume([][]float64{{2, 2, 2}}, []float64{0, 0, 0}); math.Abs(hv-8) > 1e-12 {
		t.Errorf("3D hypervolume = %g, want 8", hv)
	}
}

// TestHypervolumeMonotone property-checks that adding a point never
// shrinks the hypervolume.
func TestHypervolumeMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := []float64{0, 0, 0}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{rng.Float64() * 4, rng.Float64() * 4, rng.Float64() * 4}
		}
		base := Hypervolume(points, ref)
		extra := append(points, []float64{rng.Float64() * 4, rng.Float64() * 4, rng.Float64() * 4})
		if grown := Hypervolume(extra, ref); grown < base-1e-9 {
			t.Fatalf("hypervolume shrank from %g to %g when adding a point", base, grown)
		}
	}
}

func TestRankAndCrowd(t *testing.T) {
	spec := Spec{Objectives: []Objective{ObjectiveFPS, ObjectiveFPSPerWatt}}
	recs := []CandidateResult{
		{Feasible: true, Metrics: Metrics{FPS: 3, FPSPerWatt: 1}},
		{Feasible: true, Metrics: Metrics{FPS: 1, FPSPerWatt: 3}},
		{Feasible: true, Metrics: Metrics{FPS: 1, FPSPerWatt: 1}},
		{Invalid: true},
		{Feasible: false, Metrics: Metrics{FPS: 9, FPSPerWatt: 9, AreaMM2: 500}},
	}
	spec.AreaBudgetMM2 = 100
	rank, crowd := newRanker(spec).rank(recs)
	if rank[0] != 0 || rank[1] != 0 {
		t.Errorf("non-dominated feasible points should rank 0, got %v", rank)
	}
	if rank[2] <= rank[0] {
		t.Errorf("dominated point should rank below the front, got %v", rank)
	}
	if rank[4] <= rank[2] {
		t.Errorf("infeasible point should rank below every feasible one, got %v", rank)
	}
	if rank[3] <= rank[4] {
		t.Errorf("invalid point should rank below infeasible, got %v", rank)
	}
	if !math.IsInf(crowd[0], 1) || !math.IsInf(crowd[1], 1) {
		t.Errorf("boundary points should have infinite crowding, got %v", crowd)
	}
}

// dominatesRecRef, rankAndCrowdRef and crowdFrontRef are the original
// ranking, which re-projects both records' objective vectors on every
// comparison and re-ranks the whole history from scratch: the oracle
// the incremental ranker must match.
func dominatesRecRef(spec Spec, a, b CandidateResult) bool {
	switch {
	case a.Invalid:
		return false
	case b.Invalid:
		return true
	case a.Feasible && !b.Feasible:
		return true
	case !a.Feasible && b.Feasible:
		return false
	case !a.Feasible:
		return spec.violation(a.Metrics) < spec.violation(b.Metrics)
	default:
		return Dominates(spec.objectiveVector(a.Metrics), spec.objectiveVector(b.Metrics))
	}
}

func rankAndCrowdRef(spec Spec, recs []CandidateResult) (rank []int, crowd []float64) {
	n := len(recs)
	rank = make([]int, n)
	crowd = make([]float64, n)
	dominated := make([]int, n)
	dominates := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if dominatesRecRef(spec, recs[i], recs[j]) {
				dominates[i] = append(dominates[i], j)
			} else if dominatesRecRef(spec, recs[j], recs[i]) {
				dominated[i]++
			}
		}
	}
	var current []int
	for i := 0; i < n; i++ {
		if dominated[i] == 0 {
			current = append(current, i)
		}
	}
	for r := 0; len(current) > 0; r++ {
		var next []int
		for _, i := range current {
			rank[i] = r
			for _, j := range dominates[i] {
				dominated[j]--
				if dominated[j] == 0 {
					next = append(next, j)
				}
			}
		}
		crowdFrontRef(spec, recs, current, crowd)
		current = next
	}
	return rank, crowd
}

func crowdFrontRef(spec Spec, recs []CandidateResult, front []int, crowd []float64) {
	if len(front) <= 2 {
		for _, i := range front {
			crowd[i] = math.Inf(1)
		}
		return
	}
	nObj := len(spec.Objectives)
	order := make([]int, len(front))
	for k := 0; k < nObj; k++ {
		copy(order, front)
		sort.SliceStable(order, func(a, b int) bool {
			return spec.objectiveVector(recs[order[a]].Metrics)[k] < spec.objectiveVector(recs[order[b]].Metrics)[k]
		})
		lo := spec.objectiveVector(recs[order[0]].Metrics)[k]
		hi := spec.objectiveVector(recs[order[len(order)-1]].Metrics)[k]
		crowd[order[0]] = math.Inf(1)
		crowd[order[len(order)-1]] = math.Inf(1)
		if hi == lo {
			continue
		}
		for x := 1; x < len(order)-1; x++ {
			prev := spec.objectiveVector(recs[order[x-1]].Metrics)[k]
			next := spec.objectiveVector(recs[order[x+1]].Metrics)[k]
			crowd[order[x]] += (next - prev) / (hi - lo)
		}
	}
}

// randHistory draws a canonical-order history of n records, gen records
// per generation, mixing invalid, infeasible and duplicate-objective
// records. Fractional steps make crowding sums round, so bit identity
// depends on summing in the reference order.
func randHistory(rng *rand.Rand, spec Spec, n, gen int) []CandidateResult {
	recs := make([]CandidateResult, n)
	for i := range recs {
		r := CandidateResult{Gen: i / gen, Index: i % gen}
		switch {
		case rng.Intn(8) == 0:
			r.Invalid = true
		case i > 0 && rng.Intn(4) == 0:
			r.Metrics = recs[rng.Intn(i)].Metrics // duplicate objectives
		default:
			m := &r.Metrics
			for _, v := range []*float64{&m.FPS, &m.FPSPerWatt, &m.FPSPerMM2, &m.PAP, &m.Yield} {
				*v = float64(rng.Intn(5)) / 3
			}
			m.AreaMM2, m.PowerW = float64(1+rng.Intn(6)), float64(1+rng.Intn(6))
		}
		r.Feasible = !r.Invalid && spec.feasible(r.Metrics)
		recs[i] = r
	}
	return recs
}

// randRankSpec draws a spec over a random non-empty objective subset,
// with budgets that make some records infeasible.
func randRankSpec(rng *rand.Rand) Spec {
	all := []Objective{ObjectiveFPS, ObjectiveFPSPerWatt, ObjectiveFPSPerMM2, ObjectivePAP, ObjectiveYield}
	spec := Spec{AreaBudgetMM2: 4, PowerBudgetW: 4}
	for _, p := range rng.Perm(len(all))[:1+rng.Intn(len(all))] {
		spec.Objectives = append(spec.Objectives, all[p])
	}
	return spec
}

// checkRanked fails unless the ranker's answer for recs matches the
// reference ranks and crowding distances bit for bit.
func checkRanked(t *testing.T, what string, rk *ranker, spec Spec, recs []CandidateResult) {
	t.Helper()
	rank, crowd := rk.rank(recs)
	wantRank, wantCrowd := rankAndCrowdRef(spec, recs)
	if len(rank) != len(recs) || len(crowd) != len(recs) {
		t.Fatalf("%s: %d ranks, %d crowding distances for %d records", what, len(rank), len(crowd), len(recs))
	}
	for i := range recs {
		if rank[i] != wantRank[i] || math.Float64bits(crowd[i]) != math.Float64bits(wantCrowd[i]) {
			t.Fatalf("%s: record %d: rank %d crowd %v, reference %d %v", what, i, rank[i], crowd[i], wantRank[i], wantCrowd[i])
		}
	}
	for i, r := range recs {
		if !vecEqual(rk.vecs[i], spec.objectiveVector(r.Metrics)) {
			t.Fatalf("%s: record %d: kept vector %v, want %v", what, i, rk.vecs[i], spec.objectiveVector(r.Metrics))
		}
	}
}

// TestRankAndCrowdMatchesReference: over seeded random histories mixing
// invalid, infeasible and duplicate-objective records, a fresh ranker
// returns the reference ranks and bit-identical crowding distances.
func TestRankAndCrowdMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		spec := randRankSpec(rng)
		checkRanked(t, fmt.Sprintf("trial %d", trial), newRanker(spec), spec, randHistory(rng, spec, rng.Intn(160), 8))
	}
}

// TestRankerIncrementalMatchesReference: one ranker fed a history
// generation by generation, as a search does, matches the reference at
// every generation — whether its rows were sized for the whole budget
// or must widen, whether it is first called mid-search (a resume), and
// after a history that does not extend the ranked one forces a rebuild.
func TestRankerIncrementalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 40; trial++ {
		spec := randRankSpec(rng)
		pop := 8 + rng.Intn(40)
		gens := 3 + rng.Intn(6) // histories up to 376 records: rows span several words
		if trial%2 == 0 {
			spec.Generations, spec.Population = gens, pop // rows sized once for the budget
		} // else a zero budget: every growth past a row width rebuilds wider
		hist := randHistory(rng, spec, gens*pop, pop)
		rk := newRanker(spec)
		for g := 1; g <= gens; g++ {
			checkRanked(t, fmt.Sprintf("trial %d gen %d", trial, g), rk, spec, hist[:g*pop])
		}

		// Resume: a fresh ranker's first history is already mid-search.
		mid := 1 + rng.Intn(gens)
		rk = newRanker(spec)
		for g := mid; g <= gens; g++ {
			checkRanked(t, fmt.Sprintf("trial %d resumed at gen %d, gen %d", trial, mid, g), rk, spec, hist[:g*pop])
		}

		// Not an extension: a shorter history, then one whose kept prefix
		// names other cells, then growth again from each.
		checkRanked(t, fmt.Sprintf("trial %d shrunk", trial), rk, spec, hist[:pop])
		checkRanked(t, fmt.Sprintf("trial %d regrown", trial), rk, spec, hist[:2*pop])
		other := randHistory(rng, spec, gens*pop, pop)
		other[rng.Intn(2*pop)].Index += gens * pop // same length, different cell
		checkRanked(t, fmt.Sprintf("trial %d diverged", trial), rk, spec, other[:2*pop])
		checkRanked(t, fmt.Sprintf("trial %d diverged, extended", trial), rk, spec, other)
	}
}

// TestRankerMatchesReferenceOverSearches replays the histories real
// evolve and halving searches grow, through one ranker per search as
// Runner.Run does, against the reference at every generation. The grid
// includes invalid cells (Reuses 0 on a feedback base) and an area
// budget that leaves some points infeasible; revisited cells give
// duplicate objectives.
func TestRankerMatchesReferenceOverSearches(t *testing.T) {
	for _, strategy := range []string{StrategyEvolve, StrategyHalving} {
		t.Run(strategy, func(t *testing.T) {
			spec := Spec{
				Preset:        "fb",
				Network:       "ResNet-50",
				Strategy:      strategy,
				Generations:   5,
				Population:    40,
				Seed:          5,
				Space:         Space{Reuses: []int{0, 1, 7, 15}},
				AreaBudgetMM2: 150,
			}.WithDefaults()
			id, err := spec.ID()
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var all []CandidateResult
			r := &Runner{Spec: spec, ID: id, Eval: DirectEval(), Parallelism: 2, Hooks: Hooks{
				PointExecuted: func(c CandidateResult) {
					mu.Lock()
					all = append(all, c)
					mu.Unlock()
				},
			}}
			if _, err := r.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			sortResults(all)
			var invalid, infeasible int
			for _, c := range all {
				switch {
				case c.Invalid:
					invalid++
				case !c.Feasible:
					infeasible++
				}
			}
			if invalid == 0 || infeasible == 0 || len(all) <= 64 {
				t.Fatalf("history of %d records, %d invalid, %d infeasible: the grid no longer exercises every ranking case", len(all), invalid, infeasible)
			}
			rk := newRanker(spec)
			for gen := 1; gen < spec.Generations; gen++ {
				n := sort.Search(len(all), func(i int) bool { return all[i].Gen >= gen })
				checkRanked(t, fmt.Sprintf("gen %d", gen), rk, spec, all[:n])
			}
		})
	}
}
