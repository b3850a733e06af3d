package main

import (
	"sort"

	"repro/internal/vecstore"
)

// reference is an exact search in float64 over the vectors an index
// actually stores (its FP16 rows, decoded). It shares no scoring code with
// the vecstore scan kernels, so a kernel that drops, reorders or
// mis-scores a row disagrees with it.
type reference struct {
	rows [][]float32 // decoded stored vectors, row order
	row  map[string]int
}

func newReference(ix *vecstore.Flat) *reference {
	ref := &reference{rows: make([][]float32, ix.Len()), row: make(map[string]int, ix.Len())}
	for i := range ref.rows {
		ref.rows[i] = make([]float32, ix.Dim())
		ix.VectorInto(ref.rows[i], i)
		ref.row[ix.Key(i)] = i
	}
	return ref
}

func dot64(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// scores returns the float64 score of every stored row against query.
func (ref *reference) scores(query []float32) []float64 {
	out := make([]float64, len(ref.rows))
	for i, r := range ref.rows {
		out[i] = dot64(r, query)
	}
	return out
}

// tieTolerance absorbs the float32-versus-float64 rounding of one score:
// a served key whose exact score is within it of the exact k-th best is
// a tie, not a miss.
const tieTolerance = 1e-5

// recall is the share of the k slots of served that hold a key from the
// exact top k, counting a tie at the boundary as a hit. A served list
// shorter than min(k, rows) loses the missing slots.
func (ref *reference) recall(query []float32, served []string, k int) float64 {
	if k > len(ref.rows) {
		k = len(ref.rows)
	}
	if k == 0 {
		return 1
	}
	sc := ref.scores(query)
	sorted := append([]float64(nil), sc...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	kth := sorted[k-1]
	hits := 0
	seen := make(map[string]bool, len(served))
	for i, key := range served {
		if i >= k || seen[key] {
			continue
		}
		seen[key] = true
		if r, ok := ref.row[key]; ok && sc[r] >= kth-tieTolerance {
			hits++
		}
	}
	return float64(hits) / float64(k)
}
