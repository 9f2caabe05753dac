package grb

import "lagraph/internal/obs"

// MxM: C⟨M⟩ ⊙= A ⊕.⊗ B, with the three kernel families of §II-A:
//
//   - Gustavson's method: row-wise saxpy with a dense accumulator; the
//     general-purpose kernel.
//   - The dot-product method: C(i,j) = A(i,:)·B(:,j); superior when a
//     sparse mask limits the output pattern (triangle counting) and when
//     the additive monoid has a terminal value (early exit).
//   - The heap method: a k-way merge of the B rows selected by each A row;
//     wins when rows of A are very short, and never allocates an
//     output-dimension-sized accumulator (so it also serves hypersparse
//     outputs).

// MxM computes C⟨M⟩ ⊙= A ⊕.⊗ B.
func MxM[A, B, T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], s Semiring[A, B, T], a *Matrix[A], b *Matrix[B], desc *Descriptor) error {
	if c == nil || a == nil || b == nil || s.Add.Op == nil || s.Mul == nil {
		return opError("mxm", ErrUninitialized)
	}
	d := desc.get()
	ar, ac := a.nr, a.nc
	if d.TranA {
		ar, ac = ac, ar
	}
	br, bc := b.nr, b.nc
	if d.TranB {
		br, bc = bc, br
	}
	if ac != br {
		return opErrorf("mxm", ErrDimensionMismatch, "A is %d×%d, B is %d×%d", ar, ac, br, bc)
	}
	if c.nr != ar || c.nc != bc {
		return opErrorf("mxm", ErrDimensionMismatch, "C is %d×%d, A·B is %d×%d", c.nr, c.nc, ar, bc)
	}
	if mask != nil && (mask.nr != c.nr || mask.nc != c.nc) {
		return opErrorf("mxm", ErrDimensionMismatch, "mask is %d×%d, C is %d×%d", mask.nr, mask.nc, c.nr, c.nc)
	}

	ca := orientedCSR(a, d.TranA)
	mm := newMaskMat(mask, d)

	method := d.Method
	policy := "forced"
	if method == MxMAuto {
		method = chooseMxM(ca, mm, ar, bc)
		policy = "static"
	}

	// Observation guard: one atomic load; st stays nil (and the kernels
	// record nothing) when no observer is installed.
	ob := obs.Active()
	var st *kernelStats
	var t0 int64
	if ob != nil {
		st = new(kernelStats)
		t0 = ob.Now()
	}

	var z *cs[T]
	var kernel string
	var nnzB int
	switch method {
	case MxMDot:
		cbT := orientedCSC(b, d.TranB)
		nnzB = cbT.nvals()
		z = mxmDot(ca, cbT, s, mm, ar, bc, st)
		kernel = "dot"
	case MxMHeap:
		cb := orientedCSR(b, d.TranB)
		nnzB = cb.nvals()
		z = mxmHeap(ca, cb, s, mm, ar, bc, st)
		kernel = "heap"
	default:
		cb := orientedCSR(b, d.TranB)
		nnzB = cb.nvals()
		z = mxmGustavson(ca, cb, s, mm, ar, bc, st)
		kernel = "gustavson"
	}
	err := writeMatrixResult(c, mask, accum, z, d)
	if ob != nil && err == nil {
		// The saxpy-family estimate pads each stored A row by one; the
		// exact multiply count is the estimate minus that padding. Dot
		// rows exit early on terminal monoids, so their actual work is
		// unknowable without per-iteration counting — reported as 0.
		var act int64
		if method != MxMDot {
			act = st.estFlops - int64(ca.nvecs())
		}
		ob.Op(obs.OpRecord{
			Op: "mxm", Kernel: kernel, Policy: policy,
			Rows: ar, Cols: bc,
			NnzA: ca.nvals(), NnzB: nnzB, NnzOut: z.nvals(),
			Masked:   mask != nil,
			EstFlops: st.estFlops, ActFlops: act,
			Chunks: st.chunks, MaxChunkFlops: st.maxChunkFlops,
			DurNanos: ob.Now() - t0,
		})
	}
	return err
}

// orientedCSC returns the column-major view of the effective operand: for
// a transposed operand that is simply its row-major storage.
func orientedCSC[T any](a *Matrix[T], tran bool) *cs[T] {
	if tran {
		return a.materializedCSR()
	}
	return a.materializedCSC()
}

// chooseMxM picks a kernel: dot when a non-complemented mask restricts the
// output to a small pattern; heap when A's rows are very short and the
// output dimension is large; Gustavson otherwise.
func chooseMxM[A any](ca *cs[A], mm *maskMat, outRows, outCols int) MxMMethod {
	if mm != nil && !mm.comp {
		return MxMDot
	}
	nv := ca.nvals()
	if nv > 0 && outCols >= hyperThresholdDim*hyperRatio {
		return MxMHeap // avoid O(outCols) accumulators per worker
	}
	if ca.nvecs() > 0 && nv/max(ca.nvecs(), 1) <= 2 && outCols > 4096 {
		return MxMHeap
	}
	return MxMGustavson
}

// mxmWorkQuantum is the minimum estimated flop count before the saxpy and
// heap kernels spin up worker goroutines.
const mxmWorkQuantum = 1 << 12

// saxpyFlops estimates the work of A's stored row k under Gustavson or the
// heap method: the summed degrees of the B rows it selects. On power-law
// graphs this varies by orders of magnitude across rows, which is why the
// kernels partition by it rather than by row count.
func saxpyFlops[A, B any](ca *cs[A], cb *cs[B], k int) int {
	ai, _ := ca.vec(k)
	f := 1
	for _, j := range ai {
		if bk, ok := cb.findMajor(j); ok {
			f += cb.p[bk+1] - cb.p[bk]
		}
	}
	return f
}

// mxmGustavson computes Z = A·B row-wise with a dense accumulator, rows
// partitioned at equal-flop boundaries and dynamically scheduled so hub
// rows don't serialize the kernel.
func mxmGustavson[A, B, T any](ca *cs[A], cb *cs[B], s Semiring[A, B, T], mm *maskMat, nr, nc int, st *kernelStats) *cs[T] {
	nvec := ca.nvecs()
	staging := newRowSlices[T](nvec)
	flops := func(k int) int { return saxpyFlops(ca, cb, k) }
	parallelWorkObs(nvec, mxmWorkQuantum, flops, st, func(lo, hi int) {
		val := make([]T, nc)
		seen := make([]bool, nc)
		var touched []int
		for k := lo; k < hi; k++ {
			ai, ax := ca.vec(k)
			if len(ai) == 0 {
				continue
			}
			row := ca.majorOf(k)
			touched = touched[:0]
			for t := range ai {
				bk, ok := cb.findMajor(ai[t])
				if !ok {
					continue
				}
				bi, bx := cb.vec(bk)
				av := ax[t]
				for u := range bi {
					j := bi[u]
					p := s.Mul(av, bx[u])
					if seen[j] {
						val[j] = s.Add.Op(val[j], p)
					} else {
						seen[j] = true
						val[j] = p
						touched = append(touched, j)
					}
				}
			}
			sortDedupIndices(touched) // sort; already unique
			emitMasked(&staging.idx[k], &staging.val[k], touched, val, mm, row)
			for _, j := range touched {
				seen[j] = false
			}
		}
	})
	return stitchByA(staging, ca, nr, nc)
}

// emitMasked appends the accumulated row, filtered by the row's mask.
func emitMasked[T any](oi *[]int, ox *[]T, touched []int, val []T, mm *maskMat, row int) {
	if mm == nil {
		for _, j := range touched {
			*oi = append(*oi, j)
			*ox = append(*ox, val[j])
		}
		return
	}
	allowed := mm.rowMask(row).cursor()
	for _, j := range touched {
		if allowed(j) {
			*oi = append(*oi, j)
			*ox = append(*ox, val[j])
		}
	}
}

// stitchByA assembles staged rows using A's row structure (hypersparse A
// yields hypersparse Z).
func stitchByA[A, T any](staging *rowSlices[T], ca *cs[A], nr, nc int) *cs[T] {
	if ca.h != nil {
		return staging.stitch(nr, nc, ca.h)
	}
	return staging.stitch(nr, nc, nil)
}

// mxmDot computes Z = A·B with dot products, iterating only positions
// admitted by the mask when one is present (and not complemented). cbT is
// the column-major view of B, i.e. rows of Bᵀ.
func mxmDot[A, B, T any](ca *cs[A], cbT *cs[B], s Semiring[A, B, T], mm *maskMat, nr, nc int, st *kernelStats) *cs[T] {
	nvec := ca.nvecs()
	staging := newRowSlices[T](nvec)
	useMaskPattern := mm != nil && !mm.comp
	// Per-row work ≈ admitted outputs × merge length; the mask row size is
	// the dominant skew on masked products (triangle counting).
	flops := func(k int) int {
		ai, _ := ca.vec(k)
		if len(ai) == 0 {
			return 1
		}
		outs := nc
		if useMaskPattern {
			mi, _ := mm.row(ca.majorOf(k))
			outs = len(mi)
		}
		return 1 + outs*(len(ai)+1)
	}
	parallelWorkObs(nvec, mxmWorkQuantum, flops, st, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			ai, ax := ca.vec(k)
			if len(ai) == 0 {
				continue
			}
			row := ca.majorOf(k)
			dot := func(j int) {
				bk, ok := cbT.findMajor(j)
				if !ok {
					return
				}
				bi, bx := cbT.vec(bk)
				acc, any := sparseDot(ai, ax, bi, bx, s)
				if any {
					staging.idx[k] = append(staging.idx[k], j)
					staging.val[k] = append(staging.val[k], acc)
				}
			}
			if useMaskPattern {
				mi, mv := mm.row(row)
				for t, j := range mi {
					if mv != nil && !mv[t] {
						continue
					}
					dot(j)
				}
			} else if mm != nil { // complemented mask: all j not admitted... i.e. admitted by comp view
				allowed := mm.rowMask(row).cursor()
				for j := 0; j < nc; j++ {
					if allowed(j) {
						dot(j)
					}
				}
			} else {
				for j := 0; j < nc; j++ {
					dot(j)
				}
			}
		}
	})
	return stitchByA(staging, ca, nr, nc)
}

// sparseDot merges two sorted sparse vectors under the semiring, stopping
// early once the additive monoid reaches a terminal value (§II-A's early
// exit; the reason a "pull" BFS step is cheap).
func sparseDot[A, B, T any](ai []int, ax []A, bi []int, bx []B, s Semiring[A, B, T]) (T, bool) {
	var acc T
	found := false
	u, v := 0, 0
	for u < len(ai) && v < len(bi) {
		switch {
		case ai[u] < bi[v]:
			u++
		case bi[v] < ai[u]:
			v++
		default:
			p := s.Mul(ax[u], bx[v])
			if found {
				acc = s.Add.Op(acc, p)
			} else {
				acc = p
				found = true
			}
			if s.Add.Terminal != nil && s.Add.Terminal(acc) {
				return acc, true
			}
			u++
			v++
		}
	}
	return acc, found
}

// heapEntry is a cursor into one selected row of B during the k-way merge.
type heapEntry[B any] struct {
	col int // current column of this cursor
	pos int // position within the row
	bi  []int
	bx  []B
	src int // index into A's row (for the multiplier)
}

// mxmHeap computes Z = A·B one row at a time by merging the selected rows
// of B with a binary heap keyed on column index. Memory per worker is
// O(row degree of A), never O(ncols) — the property that matters for
// hypersparse outputs.
func mxmHeap[A, B, T any](ca *cs[A], cb *cs[B], s Semiring[A, B, T], mm *maskMat, nr, nc int, st *kernelStats) *cs[T] {
	nvec := ca.nvecs()
	staging := newRowSlices[T](nvec)
	flops := func(k int) int { return saxpyFlops(ca, cb, k) }
	parallelWorkObs(nvec, mxmWorkQuantum, flops, st, func(lo, hi int) {
		var heap []heapEntry[B]
		for k := lo; k < hi; k++ {
			ai, ax := ca.vec(k)
			if len(ai) == 0 {
				continue
			}
			row := ca.majorOf(k)
			heap = heap[:0]
			for t := range ai {
				bk, ok := cb.findMajor(ai[t])
				if !ok {
					continue
				}
				bi, bx := cb.vec(bk)
				if len(bi) == 0 {
					continue
				}
				heap = append(heap, heapEntry[B]{col: bi[0], pos: 0, bi: bi, bx: bx, src: t})
			}
			// heapify
			for t := len(heap)/2 - 1; t >= 0; t-- {
				siftDown(heap, t)
			}
			var oi []int
			var ox []T
			for len(heap) > 0 {
				top := heap[0]
				j := top.col
				p := s.Mul(ax[top.src], top.bx[top.pos])
				if len(oi) > 0 && oi[len(oi)-1] == j {
					ox[len(ox)-1] = s.Add.Op(ox[len(ox)-1], p)
				} else {
					oi = append(oi, j)
					ox = append(ox, p)
				}
				// advance cursor
				if top.pos+1 < len(top.bi) {
					heap[0].pos++
					heap[0].col = top.bi[top.pos+1]
					siftDown(heap, 0)
				} else {
					heap[0] = heap[len(heap)-1]
					heap = heap[:len(heap)-1]
					if len(heap) > 0 {
						siftDown(heap, 0)
					}
				}
			}
			if mm == nil {
				staging.idx[k], staging.val[k] = oi, ox
			} else {
				allowed := mm.rowMask(row).cursor()
				for t, j := range oi {
					if allowed(j) {
						staging.idx[k] = append(staging.idx[k], j)
						staging.val[k] = append(staging.val[k], ox[t])
					}
				}
			}
		}
	})
	return stitchByA(staging, ca, nr, nc)
}

func siftDown[B any](h []heapEntry[B], i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].col < h[small].col {
			small = l
		}
		if r < len(h) && h[r].col < h[small].col {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// Kronecker computes C⟨M⟩ ⊙= A ⊗kron B (the GrB_kronecker of the v1.3
// API): C(ia·nbr+ib, ja·nbc+jb) = mul(A(ia,ja), B(ib,jb)).
func Kronecker[A, B, T, M any](c *Matrix[T], mask *Matrix[M], accum BinaryOp[T, T, T], mul BinaryOp[A, B, T], a *Matrix[A], b *Matrix[B], desc *Descriptor) error {
	if c == nil || a == nil || b == nil || mul == nil {
		return opError("kronecker", ErrUninitialized)
	}
	d := desc.get()
	ca := orientedCSR(a, d.TranA)
	cb := orientedCSR(b, d.TranB)
	nbr, nbc := cb.nmajor, cb.nminor
	nr, nc := ca.nmajor*nbr, ca.nminor*nbc
	if c.nr != nr || c.nc != nc {
		return opErrorf("kronecker", ErrDimensionMismatch, "C is %d×%d, want %d×%d", c.nr, c.nc, nr, nc)
	}
	return writeMatrixResult(c, mask, accum, kroneckerCS(ca, cb, mul, nr, nc), d)
}

// kroneckerCS emits A ⊗ B directly in compressed form: output row
// ia·nbr+ib is, walking A's row ia in column order, B's row ib shifted by
// ja·nbc — each segment sorted and the segments disjoint and ascending, so
// the row needs no staging, sorting or duplicate pass (the old path
// materialized three O(nvals(A)·nvals(B)) COO slices and re-sorted them
// through assembleCS). Output rows are filled concurrently at exact
// offsets known from a prefix sum over the per-row sizes.
func kroneckerCS[A, B, T any](ca *cs[A], cb *cs[B], mul BinaryOp[A, B, T], nr, nc int) *cs[T] {
	nva, nvb := ca.nvecs(), cb.nvecs()
	nbr, nbc := cb.nmajor, cb.nminor
	nrows := nva * nvb
	p := make([]int, nrows+1)
	h := make([]int, nrows)
	for ka := 0; ka < nva; ka++ {
		la := ca.p[ka+1] - ca.p[ka]
		base := ca.majorOf(ka) * nbr
		for kb := 0; kb < nvb; kb++ {
			r := ka*nvb + kb
			p[r+1] = p[r] + la*(cb.p[kb+1]-cb.p[kb])
			h[r] = base + cb.majorOf(kb)
		}
	}
	zi := make([]int, p[nrows])
	zx := make([]T, p[nrows])
	parallelWorkObs(nrows, mxmWorkQuantum, func(r int) int { return p[r+1] - p[r] + 1 }, nil, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			ai, ax := ca.vec(r / nvb)
			bi, bx := cb.vec(r % nvb)
			w := p[r]
			for ta := range ai {
				col := ai[ta] * nbc
				av := ax[ta]
				for tb := range bi {
					zi[w] = col + bi[tb]
					zx[w] = mul(av, bx[tb])
					w++
				}
			}
		}
	})
	// Compress away stored-but-empty rows (empty input rows in standard
	// format produce them) to keep the hypersparse invariant.
	cp := make([]int, 1, nrows+1)
	ch := make([]int, 0, nrows)
	for r := 0; r < nrows; r++ {
		if p[r+1] > p[r] {
			cp = append(cp, p[r+1])
			ch = append(ch, h[r])
		}
	}
	return &cs[T]{nmajor: nr, nminor: nc, p: cp, h: ch, i: zi, x: zx}
}
