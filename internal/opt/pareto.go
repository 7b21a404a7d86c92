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

// rankAndCrowd performs NSGA-II non-dominated sorting with constraint
// domination (Deb's rules): a valid point beats an invalid one, a
// feasible point beats an infeasible one, infeasible points compare by
// budget violation (strictly smaller dominates), and feasible points
// compare by Pareto dominance on the spec's objectives. rank[i] is the
// index of the front record i falls in (0 = best), crowd[i] its crowding
// distance within that front (larger = more isolated; boundary points
// get +Inf). Each record's objective vector and violation are computed
// once, the O(n²) comparisons run on indices, and who dominates whom is
// kept in one n×n bitset rather than n growing lists. Used by the
// evolutionary and halving strategies to order survivors.
func rankAndCrowd(spec Spec, recs []CandidateResult) (rank []int, crowd []float64) {
	n := len(recs)
	vecs := make([][]float64, n)
	viol := make([]float64, n)
	for i, r := range recs {
		vecs[i] = spec.objectiveVector(r.Metrics)
		viol[i] = spec.violation(r.Metrics)
	}
	dominatesIdx := func(a, b int) bool {
		ra, rb := &recs[a], &recs[b]
		switch {
		case ra.Invalid:
			return false
		case rb.Invalid:
			return true
		case ra.Feasible && !rb.Feasible:
			return true
		case !ra.Feasible && rb.Feasible:
			return false
		case !ra.Feasible:
			return viol[a] < viol[b]
		default:
			return Dominates(vecs[a], vecs[b])
		}
	}
	rank = make([]int, n)
	crowd = make([]float64, n)
	dominated := make([]int, n) // how many records dominate i
	words := (n + 63) / 64
	dominates := make([]uint64, n*words) // row i: the records i dominates
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if dominatesIdx(i, j) {
				dominates[i*words+j/64] |= 1 << (j % 64)
			} else if dominatesIdx(j, i) {
				dominated[i]++
			}
		}
	}
	// Fronts partition the records, so one buffer of n holds the current
	// front at its start and collects the next one behind it.
	buf := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if dominated[i] == 0 {
			buf = append(buf, i)
		}
	}
	order := make([]int, n)
	for r, start := 0, 0; start < len(buf); r++ {
		current := buf[start:len(buf):len(buf)]
		for _, i := range current {
			rank[i] = r
			for w, set := range dominates[i*words : (i+1)*words] {
				for ; set != 0; set &= set - 1 {
					j := w*64 + bits.TrailingZeros64(set)
					dominated[j]--
					if dominated[j] == 0 {
						buf = append(buf, j)
					}
				}
			}
		}
		crowdFront(vecs, len(spec.Objectives), current, order[:len(current)], crowd)
		start += len(current)
	}
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
