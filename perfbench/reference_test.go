package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/embed"
	"repro/internal/vecstore"
)

func tinyFlat(t *testing.T, rows map[string][]float32, order []string) *vecstore.Flat {
	t.Helper()
	f := vecstore.NewFlat(len(rows[order[0]]))
	for _, key := range order {
		f.Add(rows[key], key)
	}
	return f
}

// topK returns the keys of the reference's k best rows, best first, ties
// broken by row order.
func (ref *reference) topK(query []float32, k int) []string {
	sc := ref.scores(query)
	idx := make([]int, len(sc))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return sc[idx[a]] > sc[idx[b]] })
	keyOf := make([]string, len(sc))
	for key, i := range ref.row {
		keyOf[i] = key
	}
	out := make([]string, min(k, len(idx)))
	for i := range out {
		out[i] = keyOf[idx[i]]
	}
	return out
}

func TestReferenceTopKOnATinyCorpus(t *testing.T) {
	rows := map[string][]float32{
		"a": {1, 0, 0, 0},
		"b": {0.6, 0.8, 0, 0},
		"c": {0, 1, 0, 0},
		"d": {0, 0, 1, 0},
		"e": {-1, 0, 0, 0},
	}
	order := []string{"a", "b", "c", "d", "e"}
	ref := newReference(tinyFlat(t, rows, order))
	q := []float32{0.9, 0.3, 0.1, 0}
	// Exact scores: a 0.9, b 0.78, c 0.3, d 0.1, e -0.9.
	if got, want := ref.topK(q, 3), []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("topK = %v, want %v", got, want)
	}
	if r := ref.recall(q, []string{"a", "b", "c"}, 3); r != 1 {
		t.Errorf("exact list recall = %g", r)
	}
	if r := ref.recall(q, []string{"a", "c", "b"}, 3); r != 1 {
		t.Errorf("recall is order-blind within the top k, got %g", r)
	}
	if r := ref.recall(q, []string{"a", "b", "d"}, 3); math.Abs(r-2.0/3) > 1e-12 {
		t.Errorf("one wrong key: recall %g, want 2/3", r)
	}
	if r := ref.recall(q, []string{"a", "a", "b"}, 3); math.Abs(r-2.0/3) > 1e-12 {
		t.Errorf("a repeated key counts once: recall %g, want 2/3", r)
	}
	if r := ref.recall(q, []string{"a"}, 3); math.Abs(r-1.0/3) > 1e-12 {
		t.Errorf("short list: recall %g, want 1/3", r)
	}
}

// TestReferenceTreatsBoundaryTiesAsHits: two stored rows with the same
// vector tie at the k-th place, and either may fill it.
func TestReferenceTreatsBoundaryTiesAsHits(t *testing.T) {
	rows := map[string][]float32{
		"x":  {1, 0},
		"t1": {0, 1},
		"t2": {0, 1},
		"z":  {-1, 0},
	}
	ref := newReference(tinyFlat(t, rows, []string{"x", "t1", "t2", "z"}))
	q := []float32{0.8, 0.6}
	for _, served := range [][]string{{"x", "t1"}, {"x", "t2"}} {
		if r := ref.recall(q, served, 2); r != 1 {
			t.Errorf("served %v: recall %g, want 1", served, r)
		}
	}
	if r := ref.recall(q, []string{"x", "z"}, 2); r != 0.5 {
		t.Errorf("served x,z: recall %g, want 0.5", r)
	}
}

// TestReferenceAgreesWithTheFlatKernel checks the reference against the
// vecstore scan on embedded text, the way the serving workloads use it.
func TestReferenceAgreesWithTheFlatKernel(t *testing.T) {
	enc := embed.NewDefault()
	f := vecstore.NewFlat(enc.Dim())
	for i := 0; i < 300; i++ {
		f.Add(enc.Encode(fmt.Sprintf("radiation dose fraction %d repairs strand breaks in cell line %d", i, i%17)), fmt.Sprintf("c%d", i))
	}
	ref := newReference(f)
	for i := 0; i < 20; i++ {
		q := enc.Encode(fmt.Sprintf("which repair pathway handles strand breaks after dose %d", i*7))
		res := f.SearchBatch([][]float32{q}, 5)[0]
		keys := make([]string, len(res))
		for j, r := range res {
			keys[j] = r.Key
		}
		if r := ref.recall(q, keys, 5); r != 1 {
			t.Fatalf("query %d: kernel top-5 %v has recall %g against %v", i, keys, r, ref.topK(q, 5))
		}
	}
}
