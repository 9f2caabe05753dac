package grb

import (
	"errors"
	"math/rand"
	"testing"
)

func TestSetElementsMatchesSetElementLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, e := 150, 1200
	is := make([]int, e)
	js := make([]int, e)
	xs := make([]int64, e)
	for k := range is {
		is[k] = rng.Intn(n)
		js[k] = rng.Intn(n)
		xs[k] = int64(k)
	}
	viaLoop := MustMatrix[int64](n, n)
	for k := range is {
		_ = viaLoop.SetElement(is[k], js[k], xs[k])
	}
	viaBatch := MustMatrix[int64](n, n)
	// Split across several batches to exercise cross-batch deferral.
	for lo := 0; lo < e; lo += 256 {
		hi := lo + 256
		if hi > e {
			hi = e
		}
		if err := viaBatch.SetElements(is[lo:hi], js[lo:hi], xs[lo:hi], nil); err != nil {
			t.Fatal(err)
		}
	}
	if pend, _ := viaBatch.Pending(); pend != e {
		t.Fatalf("last-wins batches must stay pending across batch boundaries: pending=%d want %d", pend, e)
	}
	li, lj, lx := viaLoop.ExtractTuples()
	bi, bj, bx := viaBatch.ExtractTuples()
	if len(li) != len(bi) {
		t.Fatalf("nvals differ: loop=%d batch=%d", len(li), len(bi))
	}
	for k := range li {
		if li[k] != bi[k] || lj[k] != bj[k] || lx[k] != bx[k] {
			t.Fatalf("entry %d differs: loop=(%d,%d,%d) batch=(%d,%d,%d)",
				k, li[k], lj[k], lx[k], bi[k], bj[k], bx[k])
		}
	}
}

func TestSetElementsValidationIsAtomic(t *testing.T) {
	a := MustMatrix[float64](4, 4)
	if err := a.SetElements([]int{0, 1}, []int{0}, []float64{1, 2}, nil); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("ragged batch: want ErrDimensionMismatch, got %v", err)
	}
	// Last tuple is out of bounds: NOTHING from the batch may land.
	err := a.SetElements([]int{0, 1, 4}, []int{0, 1, 0}, []float64{1, 2, 3}, nil)
	if !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("want ErrIndexOutOfBounds, got %v", err)
	}
	if pend, _ := a.Pending(); pend != 0 {
		t.Fatalf("rejected batch left %d pending tuples", pend)
	}
	if n := a.Nvals(); n != 0 {
		t.Fatalf("rejected batch left %d values", n)
	}
	// Empty batch is a no-op, not an error.
	if err := a.SetElements(nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetElementsDupCombines(t *testing.T) {
	plus := Plus[int64]()
	a := MustMatrix[int64](3, 3)
	// Duplicates within one batch combine with dup.
	if err := a.SetElements([]int{1, 1, 1}, []int{2, 2, 2}, []int64{1, 10, 100}, plus); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.GetElement(1, 2); v != 111 {
		t.Fatalf("in-batch dup: got %d want 111", v)
	}
	// A later accumulate batch combines onto the stored entry.
	if err := a.SetElements([]int{1}, []int{2}, []int64{1000}, plus); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.GetElement(1, 2); v != 1111 {
		t.Fatalf("accumulate onto stored: got %d want 1111", v)
	}
	// Last-wins batch replaces instead.
	if err := a.SetElements([]int{1}, []int{2}, []int64{5}, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.GetElement(1, 2); v != 5 {
		t.Fatalf("last-wins after accumulate: got %d want 5", v)
	}
}

func TestSetElementsLastWinsOverwrites(t *testing.T) {
	a := MustMatrix[int64](3, 3)
	if err := a.SetElements([]int{0, 0}, []int{1, 1}, []int64{7, 9}, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.GetElement(0, 1); v != 9 {
		t.Fatalf("last-wins within batch: got %d want 9", v)
	}
	if n := a.Nvals(); n != 1 {
		t.Fatalf("nvals=%d want 1", n)
	}
}

func TestSetElementsInterleavesWithRemoves(t *testing.T) {
	// The streaming write path applies adds via SetElements and removes
	// via RemoveElement; the end state must match the naive sequence.
	a := MustMatrix[float64](10, 10)
	if err := a.SetElements([]int{1, 2, 3}, []int{1, 2, 3}, []float64{1, 2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.RemoveElement(2, 2); err != nil {
		t.Fatal(err)
	}
	if err := a.SetElements([]int{4, 2}, []int{4, 2}, []float64{4, 22}, nil); err != nil {
		t.Fatal(err)
	}
	if n := a.Nvals(); n != 4 {
		t.Fatalf("nvals=%d want 4", n)
	}
	if v, _ := a.GetElement(2, 2); v != 22 {
		t.Fatalf("resurrected entry: got %v want 22", v)
	}
	if _, err := a.GetElement(5, 5); !errors.Is(err, ErrNoValue) {
		t.Fatalf("want ErrNoValue, got %v", err)
	}
}

// TestSetElementsGrowsPendingGeometrically pins the amortized bound: a
// run of small last-wins batches (the WAL replay shape) must regrow the
// pending buffer O(log e) times, not once per batch, or replaying b
// batches copies and zeroes O(b²) tuples.
func TestSetElementsGrowsPendingGeometrically(t *testing.T) {
	a := MustMatrix[float64](64, 64)
	const batches = 1000
	regrows := 0
	for k := 0; k < batches; k++ {
		before := cap(a.pend)
		if err := a.SetElements([]int{k % 64, (k + 1) % 64}, []int{(k + 1) % 64, k % 64}, []float64{1, 1}, nil); err != nil {
			t.Fatal(err)
		}
		if cap(a.pend) != before {
			regrows++
		}
	}
	if pend, _ := a.Pending(); pend != 2*batches {
		t.Fatalf("pending=%d want %d", pend, 2*batches)
	}
	if regrows > 40 {
		t.Fatalf("%d batches regrew the pending buffer %d times, want O(log e)", batches, regrows)
	}
}
