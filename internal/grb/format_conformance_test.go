package grb_test

// Format conformance: the storage formats (standard CSR, hypersparse)
// are interchangeable layouts of one logical matrix, so every kernel must
// produce bitwise-identical results regardless of which format its
// operands are in, at any parallelism level, traced or untraced. Float64
// results are compared bit-for-bit — the kernels accumulate each output
// in ascending input-index order precisely so that dispatch (direction,
// method, format) can never change rounding.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// allFormats enumerates the storage formats under test.
var allFormats = []struct {
	name string
	f    grb.Format
}{
	{"csr", grb.FormatCSR},
	{"hyper", grb.FormatHyper},
}

// inFormat returns a deep copy of a converted to format f.
func inFormat[T any](a *grb.Matrix[T], f grb.Format) *grb.Matrix[T] {
	b := a.Dup()
	b.SetFormat(f)
	return b
}

// randMatrixF64 builds a random nr×nc float64 matrix whose values have
// full mantissas, so any change in accumulation order shows up in the
// result bits.
func randMatrixF64(rng *rand.Rand, nr, nc int, density float64) *grb.Matrix[float64] {
	a := grb.MustMatrix[float64](nr, nc)
	n := int(density * float64(nr) * float64(nc))
	is := make([]int, n)
	js := make([]int, n)
	xs := make([]float64, n)
	for k := 0; k < n; k++ {
		is[k] = rng.Intn(nr)
		js[k] = rng.Intn(nc)
		xs[k] = rng.NormFloat64()
	}
	if err := a.Build(is, js, xs, grb.Plus[float64]()); err != nil {
		panic(err)
	}
	return a
}

func randVectorF64(rng *rand.Rand, n int, density float64) *grb.Vector[float64] {
	v := grb.MustVector[float64](n)
	cnt := int(density * float64(n))
	is := make([]int, cnt)
	xs := make([]float64, cnt)
	for k := 0; k < cnt; k++ {
		is[k] = rng.Intn(n)
		xs[k] = rng.NormFloat64()
	}
	if err := v.Build(is, xs, grb.Plus[float64]()); err != nil {
		panic(err)
	}
	return v
}

// mustIdenticalMat fails unless got and want hold exactly the same
// tuples, bit-for-bit (NaNs compare by representation).
func mustIdenticalMat[T comparable](t *testing.T, label string, got, want *grb.Matrix[T]) {
	t.Helper()
	gi, gj, gx := got.ExtractTuples()
	wi, wj, wx := want.ExtractTuples()
	if len(gi) != len(wi) {
		t.Fatalf("%s: %d entries, want %d", label, len(gi), len(wi))
	}
	for k := range gi {
		if gi[k] != wi[k] || gj[k] != wj[k] || !bitIdentical(gx[k], wx[k]) {
			t.Fatalf("%s: entry %d is (%d,%d)=%v, want (%d,%d)=%v",
				label, k, gi[k], gj[k], gx[k], wi[k], wj[k], wx[k])
		}
	}
}

func mustIdenticalVec[T comparable](t *testing.T, label string, got, want *grb.Vector[T]) {
	t.Helper()
	gi, gx := got.ExtractTuples()
	wi, wx := want.ExtractTuples()
	if len(gi) != len(wi) {
		t.Fatalf("%s: %d entries, want %d", label, len(gi), len(wi))
	}
	for k := range gi {
		if gi[k] != wi[k] || !bitIdentical(gx[k], wx[k]) {
			t.Fatalf("%s: entry %d is [%d]=%v, want [%d]=%v",
				label, k, gi[k], gx[k], wi[k], wx[k])
		}
	}
}

// bitIdentical compares two values exactly; float64s by their bits.
func bitIdentical[T comparable](a, b T) bool {
	if fa, ok := any(a).(float64); ok {
		return math.Float64bits(fa) == math.Float64bits(any(b).(float64))
	}
	return a == b
}

// TestFormatConformanceMxM pins that every MxM method yields identical
// bits whatever format either operand is stored in.
func TestFormatConformanceMxM(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	methods := []struct {
		name string
		m    grb.MxMMethod
	}{
		{"gustavson", grb.MxMGustavson},
		{"dot", grb.MxMDot},
		{"heap", grb.MxMHeap},
	}
	for trial := 0; trial < 6; trial++ {
		m := 8 + rng.Intn(24)
		k := 8 + rng.Intn(24)
		n := 8 + rng.Intn(24)
		ai := randMatrix(rng, m, k, 0.3)
		bi := randMatrix(rng, k, n, 0.3)
		af := randMatrixF64(rng, m, k, 0.3)
		bf := randMatrixF64(rng, k, n, 0.3)
		maskI := randMatrix(rng, m, n, 0.4)
		for _, method := range methods {
			for _, masked := range []bool{false, true} {
				d := grb.Descriptor{Method: method.m}
				var gm *grb.Matrix[int64]
				if masked {
					gm = maskI
				}
				baseI := grb.MustMatrix[int64](m, n)
				if err := grb.MxM(baseI, gm, nil, grb.PlusTimes[int64](), inFormat(ai, grb.FormatCSR), inFormat(bi, grb.FormatCSR), &d); err != nil {
					t.Fatal(err)
				}
				baseF := grb.MustMatrix[float64](m, n)
				if err := grb.MxM[float64, float64, float64, int64](baseF, nil, nil, grb.PlusTimes[float64](), inFormat(af, grb.FormatCSR), inFormat(bf, grb.FormatCSR), &d); err != nil {
					t.Fatal(err)
				}
				for _, fa := range allFormats {
					for _, fb := range allFormats {
						label := fmt.Sprintf("t%d/%s/masked=%v/a=%s/b=%s", trial, method.name, masked, fa.name, fb.name)
						cI := grb.MustMatrix[int64](m, n)
						if err := grb.MxM(cI, gm, nil, grb.PlusTimes[int64](), inFormat(ai, fa.f), inFormat(bi, fb.f), &d); err != nil {
							t.Fatal(err)
						}
						mustIdenticalMat(t, label+"/int64", cI, baseI)
						cF := grb.MustMatrix[float64](m, n)
						if err := grb.MxM[float64, float64, float64, int64](cF, nil, nil, grb.PlusTimes[float64](), inFormat(af, fa.f), inFormat(bf, fb.f), &d); err != nil {
							t.Fatal(err)
						}
						mustIdenticalMat(t, label+"/float64", cF, baseF)
					}
				}
			}
		}
	}
}

// TestFormatConformanceVxM pins the vxm kernels — push and pull — to
// identical bits across formats and forced directions.
func TestFormatConformanceVxM(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dirs := []struct {
		name string
		d    grb.Direction
	}{{"auto", grb.DirAuto}, {"push", grb.DirPush}, {"pull", grb.DirPull}}
	for trial := 0; trial < 6; trial++ {
		m := 8 + rng.Intn(32)
		n := 8 + rng.Intn(32)
		ai := randMatrix(rng, m, n, 0.3)
		af := randMatrixF64(rng, m, n, 0.3)
		ui := randVector(rng, m, 0.6)
		uf := randVectorF64(rng, m, 0.6)
		maskI := randVector(rng, n, 0.5)
		for _, dir := range dirs {
			for _, masked := range []bool{false, true} {
				d := grb.Descriptor{Dir: dir.d}
				var gm *grb.Vector[int64]
				if masked {
					gm = maskI
				}
				baseI := grb.MustVector[int64](n)
				if err := grb.VxM(baseI, gm, nil, grb.PlusTimes[int64](), ui, inFormat(ai, grb.FormatCSR), &d); err != nil {
					t.Fatal(err)
				}
				baseF := grb.MustVector[float64](n)
				if err := grb.VxM[float64, float64, float64, int64](baseF, nil, nil, grb.PlusTimes[float64](), uf, inFormat(af, grb.FormatCSR), &d); err != nil {
					t.Fatal(err)
				}
				for _, fa := range allFormats {
					label := fmt.Sprintf("t%d/%s/masked=%v/a=%s", trial, dir.name, masked, fa.name)
					wI := grb.MustVector[int64](n)
					if err := grb.VxM(wI, gm, nil, grb.PlusTimes[int64](), ui, inFormat(ai, fa.f), &d); err != nil {
						t.Fatal(err)
					}
					mustIdenticalVec(t, label+"/int64", wI, baseI)
					wF := grb.MustVector[float64](n)
					if err := grb.VxM[float64, float64, float64, int64](wF, nil, nil, grb.PlusTimes[float64](), uf, inFormat(af, fa.f), &d); err != nil {
						t.Fatal(err)
					}
					mustIdenticalVec(t, label+"/float64", wF, baseF)
				}
			}
		}
	}
}

// TestFormatConformanceReduce pins reductions across formats.
func TestFormatConformanceReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 6; trial++ {
		m := 8 + rng.Intn(32)
		n := 8 + rng.Intn(32)
		af := randMatrixF64(rng, m, n, 0.3)
		baseV := grb.MustVector[float64](m)
		if err := grb.ReduceMatrixToVector[float64, bool](baseV, nil, nil, grb.PlusMonoid[float64](), inFormat(af, grb.FormatCSR), nil); err != nil {
			t.Fatal(err)
		}
		baseS, err := grb.ReduceMatrixToScalar(grb.PlusMonoid[float64](), inFormat(af, grb.FormatCSR))
		if err != nil {
			t.Fatal(err)
		}
		for _, fa := range allFormats {
			a := inFormat(af, fa.f)
			w := grb.MustVector[float64](m)
			if err := grb.ReduceMatrixToVector[float64, bool](w, nil, nil, grb.PlusMonoid[float64](), a, nil); err != nil {
				t.Fatal(err)
			}
			mustIdenticalVec(t, fmt.Sprintf("t%d/%s/vector", trial, fa.name), w, baseV)
			s, err := grb.ReduceMatrixToScalar(grb.PlusMonoid[float64](), a)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(s) != math.Float64bits(baseS) {
				t.Fatalf("t%d/%s: scalar reduce %v, want %v", trial, fa.name, s, baseS)
			}
		}
	}
}

// TestFormatConformanceParallelism pins bitwise-identical results at
// P=1 vs P=8 for every format (run under -race in CI).
func TestFormatConformanceParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m, k, n := 40, 48, 44
	af := randMatrixF64(rng, m, k, 0.4)
	bf := randMatrixF64(rng, k, n, 0.4)
	uf := randVectorF64(rng, m, 0.7)
	defer grb.SetParallelism(grb.SetParallelism(1))
	for _, fa := range allFormats {
		var mxmRes []*grb.Matrix[float64]
		var vxmRes []*grb.Vector[float64]
		for _, p := range []int{1, 8} {
			grb.SetParallelism(p)
			c := grb.MustMatrix[float64](m, n)
			if err := grb.MxM[float64, float64, float64, bool](c, nil, nil, grb.PlusTimes[float64](), inFormat(af, fa.f), inFormat(bf, fa.f), nil); err != nil {
				t.Fatal(err)
			}
			mxmRes = append(mxmRes, c)
			w := grb.MustVector[float64](k)
			if err := grb.VxM[float64, float64, float64, bool](w, nil, nil, grb.PlusTimes[float64](), uf, inFormat(af, fa.f), nil); err != nil {
				t.Fatal(err)
			}
			vxmRes = append(vxmRes, w)
		}
		mustIdenticalMat(t, fa.name+"/mxm P1 vs P8", mxmRes[1], mxmRes[0])
		mustIdenticalVec(t, fa.name+"/vxm P1 vs P8", vxmRes[1], vxmRes[0])
	}
}

// TestFormatSerializeRoundTrip pins that serialization is format-aware
// and a fixed point: each format round-trips to the same tuples AND the
// same bytes, so the restored matrix has the same format preference.
func TestFormatSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 4; trial++ {
		a := randMatrixF64(rng, 8+rng.Intn(30), 8+rng.Intn(30), 0.3)
		for _, fa := range allFormats {
			b := inFormat(a, fa.f)
			var buf bytes.Buffer
			if err := grb.SerializeMatrix(&buf, b); err != nil {
				t.Fatal(err)
			}
			c, err := grb.DeserializeMatrix[float64](bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s: %v", fa.name, err)
			}
			mustIdenticalMat(t, fa.name+"/tuples", c, b)
			var re bytes.Buffer
			if err := grb.SerializeMatrix(&re, c); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), re.Bytes()) {
				t.Fatalf("%s: serialization is not a fixed point across the round trip", fa.name)
			}
		}
	}
}

// TestFormatTracedIdenticalToUntraced pins that observation never
// changes results.
func TestFormatTracedIdenticalToUntraced(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	m, k, n := 30, 34, 32
	af := randMatrixF64(rng, m, k, 0.4)
	bf := randMatrixF64(rng, k, n, 0.4)
	uf := randVectorF64(rng, m, 0.7)

	run := func(f grb.Format) (*grb.Matrix[float64], *grb.Vector[float64]) {
		c := grb.MustMatrix[float64](m, n)
		if err := grb.MxM[float64, float64, float64, bool](c, nil, nil, grb.PlusTimes[float64](), inFormat(af, f), inFormat(bf, f), nil); err != nil {
			t.Fatal(err)
		}
		w := grb.MustVector[float64](k)
		if err := grb.VxM[float64, float64, float64, bool](w, nil, nil, grb.PlusTimes[float64](), uf, inFormat(af, f), nil); err != nil {
			t.Fatal(err)
		}
		return c, w
	}

	for _, fa := range allFormats {
		baseC, baseW := run(fa.f)
		trace := obs.NewTrace(1024)
		prevObs := obs.Set(trace)
		c, w := run(fa.f)
		obs.Set(prevObs)
		mustIdenticalMat(t, fa.name+"/traced mxm", c, baseC)
		mustIdenticalVec(t, fa.name+"/traced vxm", w, baseW)
		if len(trace.Ops()) == 0 {
			t.Fatalf("%s: trace recorded no ops", fa.name)
		}
	}
}

// TestDispatchPolicy pins the two selection tiers in the op trace: a
// descriptor-forced kernel records policy "forced", the static heuristic
// records "static", and both compute the same result.
func TestDispatchPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m, n := 24, 26
	a := randMatrix(rng, m, n, 0.6)
	b := randMatrix(rng, n, m, 0.6)
	u := randVector(rng, m, 0.8)

	traced := func(f func()) obs.OpRecord {
		t.Helper()
		trace := obs.NewTrace(64)
		prevObs := obs.Set(trace)
		f()
		obs.Set(prevObs)
		ops := trace.Ops()
		if len(ops) == 0 {
			t.Fatal("no op record traced")
		}
		return ops[0]
	}

	forcedW := grb.MustVector[int64](n)
	rec := traced(func() {
		if err := grb.VxM[int64, int64, int64, bool](forcedW, nil, nil, grb.PlusTimes[int64](), u, a, &grb.Descriptor{Dir: grb.DirPush}); err != nil {
			t.Fatal(err)
		}
	})
	if rec.Op != "vxm" || rec.Policy != "forced" || rec.Kernel != "push" {
		t.Fatalf("forced vxm recorded %+v; want policy=forced kernel=push", rec)
	}
	autoW := grb.MustVector[int64](n)
	rec = traced(func() {
		if err := grb.VxM[int64, int64, int64, bool](autoW, nil, nil, grb.PlusTimes[int64](), u, a, nil); err != nil {
			t.Fatal(err)
		}
	})
	if rec.Op != "vxm" || rec.Policy != "static" {
		t.Fatalf("auto vxm recorded %+v; want policy=static", rec)
	}
	mustIdenticalVec(t, "vxm forced vs static", autoW, forcedW)

	forcedC := grb.MustMatrix[int64](m, m)
	rec = traced(func() {
		if err := grb.MxM[int64, int64, int64, bool](forcedC, nil, nil, grb.PlusTimes[int64](), a, b, &grb.Descriptor{Method: grb.MxMHeap}); err != nil {
			t.Fatal(err)
		}
	})
	if rec.Op != "mxm" || rec.Policy != "forced" || rec.Kernel != "heap" {
		t.Fatalf("forced mxm recorded %+v; want policy=forced kernel=heap", rec)
	}
	autoC := grb.MustMatrix[int64](m, m)
	rec = traced(func() {
		if err := grb.MxM[int64, int64, int64, bool](autoC, nil, nil, grb.PlusTimes[int64](), a, b, nil); err != nil {
			t.Fatal(err)
		}
	})
	if rec.Op != "mxm" || rec.Policy != "static" {
		t.Fatalf("auto mxm recorded %+v; want policy=static", rec)
	}
	mustIdenticalMat(t, "mxm forced vs static", autoC, forcedC)
}
