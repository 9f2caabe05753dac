package grb

// Reductions of Table I: matrix→vector (row-wise), matrix→scalar, and
// vector→scalar, all driven by a Monoid. Terminal monoid values short-cut
// the reduction (§II-A's early-exit mechanism).

// ReduceMatrixToVector computes w⟨m⟩ ⊙= ⊕ⱼ A(:,j): each output element is
// the monoid-reduction of the corresponding row of A (or column, with
// TranA).
func ReduceMatrixToVector[T, M any](w *Vector[T], mask *Vector[M], accum BinaryOp[T, T, T], mon Monoid[T], a *Matrix[T], desc *Descriptor) error {
	if w == nil || a == nil || mon.Op == nil {
		return opError("reduce", ErrUninitialized)
	}
	d := desc.get()
	ar := a.nr
	if d.TranA {
		ar = a.nc
	}
	if w.n != ar {
		return opErrorf("reduce", ErrDimensionMismatch, "w is %d, A has %d rows", w.n, ar)
	}
	ca := orientedCSR(a, d.TranA)
	nvec := ca.nvecs()
	// Reduce rows in flop-balanced parallel ranges staged per row, then
	// compact in order (a hub row no longer serializes the reduction).
	vals := make([]T, nvec)
	nonempty := make([]bool, nvec)
	parallelWork(nvec, 1<<12, func(k int) int { return ca.p[k+1] - ca.p[k] + 1 }, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			if ca.p[k+1] == ca.p[k] {
				continue
			}
			_, cx := ca.vec(k)
			acc := cx[0]
			for t := 1; t < len(cx); t++ {
				if mon.Terminal != nil && mon.Terminal(acc) {
					break
				}
				acc = mon.Op(acc, cx[t])
			}
			vals[k] = acc
			nonempty[k] = true
		}
	})
	zi := make([]int, 0, nvec)
	zx := make([]T, 0, nvec)
	for k := 0; k < nvec; k++ {
		if nonempty[k] {
			zi = append(zi, ca.majorOf(k))
			zx = append(zx, vals[k])
		}
	}
	return writeVectorResult(w, mask, accum, zi, zx, d)
}

// EntryCounts returns the number of stored entries in each row of A (each
// column with TranA) as an int64 vector with no entry for an empty row:
// the vector ReduceMatrixToVector computes with the plus monoid over A's
// pattern, read in O(n) off the assembled pointer array instead of
// through an O(nvals) pattern copy.
func EntryCounts[T any](a *Matrix[T], desc *Descriptor) (*Vector[int64], error) {
	if a == nil {
		return nil, opError("entryCounts", ErrUninitialized)
	}
	d := desc.get()
	n := a.nr
	if d.TranA {
		n = a.nc
	}
	ca := orientedCSR(a, d.TranA)
	nvec := ca.nvecs()
	idx := make([]int, 0, nvec)
	x := make([]int64, 0, nvec)
	for k := 0; k < nvec; k++ {
		if c := ca.p[k+1] - ca.p[k]; c > 0 {
			idx = append(idx, ca.majorOf(k))
			x = append(x, int64(c))
		}
	}
	return &Vector[int64]{n: n, idx: idx, x: x}, nil
}

// ReduceMatrixToScalar reduces every stored entry of A with the monoid,
// starting from its identity.
func ReduceMatrixToScalar[T any](mon Monoid[T], a *Matrix[T]) (T, error) {
	var zero T
	if a == nil || mon.Op == nil {
		return zero, opError("reduce", ErrUninitialized)
	}
	c := a.materializedCSR()
	n := len(c.x)
	if n == 0 {
		return mon.Identity, nil
	}
	// Chunk boundaries depend only on n (never the worker count), and
	// partials fold in chunk order, so the reduction is deterministic at
	// any parallelism even for rounding-sensitive monoids.
	bounds := workChunks(n, func(int) int { return 1 }, 1<<14, pushMaxChunks)
	partial := make([]T, len(bounds)-1)
	runChunks(bounds, func(b, lo, hi int) {
		acc := mon.Identity
		for t := lo; t < hi; t++ {
			if mon.Terminal != nil && mon.Terminal(acc) {
				break
			}
			acc = mon.Op(acc, c.x[t])
		}
		partial[b] = acc
	})
	acc := mon.Identity
	for _, p := range partial {
		if mon.Terminal != nil && mon.Terminal(acc) {
			break
		}
		acc = mon.Op(acc, p)
	}
	return acc, nil
}

// ReduceVectorToScalar reduces every stored entry of u with the monoid.
func ReduceVectorToScalar[T any](mon Monoid[T], u *Vector[T]) (T, error) {
	var zero T
	if u == nil || mon.Op == nil {
		return zero, opError("reduce", ErrUninitialized)
	}
	_, ux := u.materialized()
	acc := mon.Identity
	for _, x := range ux {
		if mon.Terminal != nil && mon.Terminal(acc) {
			break
		}
		acc = mon.Op(acc, x)
	}
	return acc, nil
}
