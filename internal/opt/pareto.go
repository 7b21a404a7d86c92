package opt

import (
	"math"
	"math/bits"
	"sort"
)

// Dominates reports whether objective vector a strictly Pareto-dominates
// b: a is at least as good on every axis and strictly better on at least
// one. All axes are maximized. It is a strict partial order —
// irreflexive, antisymmetric and transitive — over equal-length vectors.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	strict := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			strict = true
		}
	}
	return strict
}

// ParetoFront returns the indices of the non-dominated points, in input
// order. Exact duplicates of an earlier member are excluded, so the
// front is a set of distinct objective vectors: membership depends only
// on the multiset of points, not on insertion order (up to which
// duplicate representative survives).
func ParetoFront(points [][]float64) []int {
	var front []int
	for i, p := range points {
		keep := true
		for j, q := range points {
			if i == j {
				continue
			}
			if Dominates(q, p) {
				keep = false
				break
			}
			if j < i && vecEqual(q, p) {
				keep = false
				break
			}
		}
		if keep {
			front = append(front, i)
		}
	}
	return front
}

// vecEqual reports exact element-wise equality.
func vecEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Hypervolume returns the volume of objective space dominated by points
// and bounded below by ref (all axes maximized): the standard indicator
// for comparing whole fronts — a larger hypervolume means a front that
// is better, wider, or both. Points not strictly above ref on every axis
// contribute nothing. Exact dimension-sweep computation; exponential in
// the axis count in the worst case, fine for the ≤5 objectives specs
// can express.
func Hypervolume(points [][]float64, ref []float64) float64 {
	var boxed [][]float64
	for _, p := range points {
		if len(p) != len(ref) {
			continue
		}
		above := true
		for i := range p {
			if p[i] <= ref[i] {
				above = false
				break
			}
		}
		if above {
			boxed = append(boxed, p)
		}
	}
	return hvRecurse(boxed, ref, len(ref))
}

// hvRecurse computes the hypervolume of the first d coordinates by
// slicing along axis d-1: sort descending, and each slab between
// consecutive coordinate values contributes its height times the
// (d-1)-dimensional hypervolume of the points above it.
func hvRecurse(points [][]float64, ref []float64, d int) float64 {
	if len(points) == 0 {
		return 0
	}
	if d == 1 {
		best := 0.0
		for _, p := range points {
			if v := p[0] - ref[0]; v > best {
				best = v
			}
		}
		return best
	}
	sorted := make([][]float64, len(points))
	copy(sorted, points)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i][d-1] > sorted[j][d-1] })
	total := 0.0
	for i := range sorted {
		lower := ref[d-1]
		if i+1 < len(sorted) {
			lower = sorted[i+1][d-1]
		}
		if h := sorted[i][d-1] - lower; h > 0 {
			total += h * hvRecurse(sorted[:i+1], ref, d-1)
		}
	}
	return total
}

// ranker performs NSGA-II non-dominated sorting with constraint
// domination (Deb's rules): a valid point beats an invalid one, a
// feasible point beats an infeasible one, infeasible points compare by
// budget violation (strictly smaller dominates), and feasible points
// compare by Pareto dominance on the spec's objectives.
//
// One Runner.Run owns one ranker, and each generation hands it a history
// that extends the last one by the records just evaluated. It keeps each
// ranked record's objective vector and violation, who dominates whom as
// one n×n bitset, and how many records dominate each one, so a call
// classifies only the pairs that involve a new record — each unordered
// pair once. Ranking stays a pure function of the history: one that does
// not extend the ranked prefix (same length prefix, same (Gen, Index) at
// every kept position) is ranked from scratch, with the same result.
type ranker struct {
	spec   Spec
	stride int // words per bitset row, sized to the search budget

	recs      []rankRec
	vecs      [][]float64 // each ranked record's objective vector
	dominates []uint64    // row i: the records i dominates
	dominated []int       // how many ranked records dominate i

	// Scratch reused by every call.
	count, buf, order []int
}

// rankRec is what domination needs of one ranked record.
type rankRec struct {
	cell
	invalid, feasible bool
	viol              float64
}

// newRanker returns an empty ranker for spec's objectives and budgets,
// its bitset rows sized to hold the spec's whole Generations x
// Population budget.
func newRanker(spec Spec) *ranker {
	return &ranker{spec: spec, stride: (spec.Generations*spec.Population + 63) / 64}
}

// rank returns each record's front index (rank[i], 0 = best) and its
// crowding distance within that front (crowd[i]; larger = more
// isolated, boundary points get +Inf). recs must be in canonical
// (Gen, Index) order. After the call, rk.vecs[i] is recs[i]'s objective
// vector.
func (rk *ranker) rank(recs []CandidateResult) (rank []int, crowd []float64) {
	if !rk.extends(recs) || len(recs) > rk.stride*64 {
		rk.reset(len(recs))
	}
	for _, r := range recs[len(rk.recs):] {
		rk.add(r)
	}
	return rk.peel()
}

// extends reports whether recs continues the ranked history.
func (rk *ranker) extends(recs []CandidateResult) bool {
	if len(recs) < len(rk.recs) {
		return false
	}
	for i, k := range rk.recs {
		if recs[i].Gen != k.gen || recs[i].Index != k.index {
			return false
		}
	}
	return true
}

// reset forgets every ranked record, widening the rows when n records
// would not fit.
func (rk *ranker) reset(n int) {
	if w := (n + 63) / 64; w > rk.stride {
		rk.stride = w
	}
	rk.recs, rk.vecs, rk.dominates, rk.dominated = rk.recs[:0], rk.vecs[:0], rk.dominates[:0], rk.dominated[:0]
}

// dominatesIdx reports whether ranked record a constraint-dominates b.
func (rk *ranker) dominatesIdx(a, b int) bool {
	ra, rb := &rk.recs[a], &rk.recs[b]
	switch {
	case ra.invalid:
		return false
	case rb.invalid:
		return true
	case ra.feasible && !rb.feasible:
		return true
	case !ra.feasible && rb.feasible:
		return false
	case !ra.feasible:
		return ra.viol < rb.viol
	default:
		return Dominates(rk.vecs[a], rk.vecs[b])
	}
}

// add ranks r against every kept record.
func (rk *ranker) add(r CandidateResult) {
	j := len(rk.recs)
	rk.recs = append(rk.recs, rankRec{cell: cell{r.Gen, r.Index}, invalid: r.Invalid, feasible: r.Feasible, viol: rk.spec.violation(r.Metrics)})
	rk.vecs = append(rk.vecs, rk.spec.objectiveVector(r.Metrics))
	rk.dominates = append(rk.dominates, make([]uint64, rk.stride)...)
	rk.dominated = append(rk.dominated, 0)
	for i := 0; i < j; i++ {
		if rk.dominatesIdx(i, j) {
			rk.dominates[i*rk.stride+j/64] |= 1 << (j % 64)
			rk.dominated[j]++
		} else if rk.dominatesIdx(j, i) {
			rk.dominates[j*rk.stride+i/64] |= 1 << (i % 64)
			rk.dominated[i]++
		}
	}
}

// peel walks the kept matrix front by front on a copy of the dominated
// counts, crowding each front as it is completed.
func (rk *ranker) peel() (rank []int, crowd []float64) {
	n := len(rk.recs)
	rank = make([]int, n)
	crowd = make([]float64, n)
	if cap(rk.buf) < n {
		rk.buf, rk.order = make([]int, 0, n), make([]int, n)
	}
	count := append(rk.count[:0], rk.dominated...)
	// Fronts partition the records, so one buffer of n holds the current
	// front at its start and collects the next one behind it.
	buf := rk.buf[:0]
	for i, c := range count {
		if c == 0 {
			buf = append(buf, i)
		}
	}
	for r, start := 0, 0; start < len(buf); r++ {
		current := buf[start:len(buf):len(buf)]
		for _, i := range current {
			rank[i] = r
			for w, set := range rk.dominates[i*rk.stride : (i+1)*rk.stride] {
				for ; set != 0; set &= set - 1 {
					j := w*64 + bits.TrailingZeros64(set)
					count[j]--
					if count[j] == 0 {
						buf = append(buf, j)
					}
				}
			}
		}
		crowdFront(rk.vecs, len(rk.spec.Objectives), current, rk.order[:len(current)], crowd)
		start += len(current)
	}
	rk.count = count
	return rank, crowd
}

// crowdFront fills crowding distances for one front (indices into
// vecs), using order as sort scratch of the front's length.
func crowdFront(vecs [][]float64, nObj int, front, order []int, crowd []float64) {
	if len(front) <= 2 {
		for _, i := range front {
			crowd[i] = math.Inf(1)
		}
		return
	}
	for k := 0; k < nObj; k++ {
		copy(order, front)
		sort.SliceStable(order, func(a, b int) bool { return vecs[order[a]][k] < vecs[order[b]][k] })
		lo := vecs[order[0]][k]
		hi := vecs[order[len(order)-1]][k]
		crowd[order[0]] = math.Inf(1)
		crowd[order[len(order)-1]] = math.Inf(1)
		if hi == lo {
			continue
		}
		for x := 1; x < len(order)-1; x++ {
			crowd[order[x]] += (vecs[order[x+1]][k] - vecs[order[x-1]][k]) / (hi - lo)
		}
	}
}
