package grb_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lagraph/internal/grb"
)

// applyReduceCounts is the reference degree formula EntryCounts replaces:
// replace every stored value by 1, then plus-reduce each row (each column
// with desc = DescT0).
func applyReduceCounts(t *testing.T, a *grb.Matrix[float64], desc *grb.Descriptor) *grb.Vector[int64] {
	t.Helper()
	n := a.Nrows()
	if desc != nil && desc.TranA {
		n = a.Ncols()
	}
	ones := grb.MustMatrix[int64](a.Nrows(), a.Ncols())
	if err := grb.ApplyMatrix[float64, int64, bool](ones, nil, nil, grb.One[float64, int64](), a, nil); err != nil {
		t.Fatal(err)
	}
	deg := grb.MustVector[int64](n)
	if err := grb.ReduceMatrixToVector[int64, bool](deg, nil, nil, grb.PlusMonoid[int64](), ones, desc); err != nil {
		t.Fatal(err)
	}
	return deg
}

func TestEntryCountsMatchesApplyReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	random := func(nr, nc, nvals int) *grb.Matrix[float64] {
		a := grb.MustMatrix[float64](nr, nc)
		for k := 0; k < nvals; k++ {
			// Explicit zeros count as stored entries, as they do for the
			// apply+reduce formula.
			if err := a.SetElement(rng.Intn(nr), rng.Intn(nc), float64(rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
		}
		a.Wait()
		return a
	}
	hyper := func(a *grb.Matrix[float64]) *grb.Matrix[float64] {
		b := a.Dup()
		b.SetFormat(grb.FormatHyper)
		return b
	}
	// emptyRows keeps only the even rows and columns of a, so every odd
	// row and column is empty.
	emptyRows := func(a *grb.Matrix[float64]) *grb.Matrix[float64] {
		b := grb.MustMatrix[float64](a.Nrows(), a.Ncols())
		is, js, xs := a.ExtractTuples()
		for k := range is {
			if is[k]%2 == 0 && js[k]%2 == 0 {
				if err := b.SetElement(is[k], js[k], xs[k]); err != nil {
					t.Fatal(err)
				}
			}
		}
		b.Wait()
		return b
	}
	// pending leaves a's last updates buffered, so EntryCounts has to
	// assemble before it reads the pointers.
	pending := func(a *grb.Matrix[float64]) *grb.Matrix[float64] {
		b := a.Dup()
		if err := b.SetElement(0, a.Ncols()-1, 5); err != nil {
			t.Fatal(err)
		}
		is, js, _ := a.ExtractTuples()
		if len(is) > 0 {
			if err := b.RemoveElement(is[0], js[0]); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}

	cases := map[string]*grb.Matrix[float64]{}
	std := random(40, 30, 200)
	cases["standard"] = std
	cases["hyper"] = hyper(std)
	cases["empty-rows"] = emptyRows(std)
	cases["empty-rows/hyper"] = hyper(emptyRows(std))
	cases["pending"] = pending(std)
	cases["empty"] = grb.MustMatrix[float64](9, 7)
	cases["auto-hyper"] = random(1<<16, 1<<16, 300) // FormatAuto picks hypersparse
	cases["square"] = random(64, 64, 500)

	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		a := cases[name]
		for _, desc := range []*grb.Descriptor{nil, grb.DescT0} {
			t.Run(fmt.Sprintf("%s/tran=%v", name, desc != nil), func(t *testing.T) {
				want := applyReduceCounts(t, a.Dup(), desc)
				got, err := grb.EntryCounts(a.Dup(), desc)
				if err != nil {
					t.Fatal(err)
				}
				if got.Size() != want.Size() || got.Nvals() != want.Nvals() {
					t.Fatalf("size/nvals %d/%d, want %d/%d", got.Size(), got.Nvals(), want.Size(), want.Nvals())
				}
				gi, gx := got.ExtractTuples()
				wi, wx := want.ExtractTuples()
				if !slices.Equal(gi, wi) || !slices.Equal(gx, wx) {
					t.Fatalf("counts differ:\n got %v %v\nwant %v %v", gi, gx, wi, wx)
				}
			})
		}
	}
	if _, err := grb.EntryCounts[float64](nil, nil); err == nil {
		t.Fatal("nil matrix: want an error")
	}
}
