package grb

import (
	"slices"
	"sort"
	"sync"

	"lagraph/internal/obs"
)

// Format selects the storage layout of a Matrix.
type Format int

const (
	// FormatAuto lets the library choose between standard and hypersparse
	// compressed-sparse-row storage based on the fill pattern.
	FormatAuto Format = iota
	// FormatCSR forces standard compressed sparse row storage: a pointer
	// array of length nrows+1, O(nrows + nvals) memory.
	FormatCSR
	// FormatHyper forces hypersparse storage: only non-empty rows are
	// represented, O(nvals) memory, so matrices of enormous dimension can
	// be created as long as nvals << nrows (paper §II-A).
	FormatHyper
)

// hyperThresholdDim is the minimum dimension before FormatAuto considers
// hypersparse storage, and hyperRatio the maximum fraction of non-empty
// rows for which hypersparse is chosen.
const (
	hyperThresholdDim = 4096
	hyperRatio        = 8 // hypersparse if non-empty rows < nrows/hyperRatio
)

// cs is a compressed-sparse structure in one orientation: row-major when
// used as CSR, column-major when used as CSC. "Major" is the compressed
// dimension (rows for CSR), "minor" the index dimension.
type cs[T any] struct {
	nmajor, nminor int
	// p has length nvecs+1; entries of stored vector k occupy
	// i[p[k]:p[k+1]] and x[p[k]:p[k+1]], with i sorted ascending.
	p []int
	// h is nil for standard storage (nvecs == nmajor, vector k is major
	// index k). For hypersparse storage h lists, in ascending order, the
	// major index of each stored vector.
	h []int
	i []int
	x []T
}

func (c *cs[T]) nvecs() int {
	return len(c.p) - 1
}

func (c *cs[T]) nvals() int {
	return c.p[len(c.p)-1]
}

// majorOf returns the major index of stored vector k.
func (c *cs[T]) majorOf(k int) int {
	if c.h == nil {
		return k
	}
	return c.h[k]
}

// findMajor returns the stored-vector slot for major index j, or ok=false
// if j has no stored vector (always true for standard storage).
func (c *cs[T]) findMajor(j int) (int, bool) {
	if c.h == nil {
		return j, true
	}
	k := sort.SearchInts(c.h, j)
	if k < len(c.h) && c.h[k] == j {
		return k, true
	}
	return 0, false
}

// vec returns the minor indices and values of stored vector k.
func (c *cs[T]) vec(k int) ([]int, []T) {
	lo, hi := c.p[k], c.p[k+1]
	return c.i[lo:hi], c.x[lo:hi]
}

// emptyCS returns an empty structure with the requested orientation.
func emptyCS[T any](nmajor, nminor int, hyper bool) *cs[T] {
	c := &cs[T]{nmajor: nmajor, nminor: nminor}
	if hyper {
		c.p = []int{0}
		c.h = []int{}
	} else {
		c.p = make([]int, nmajor+1)
	}
	return c
}

// tuple is a pending update produced by SetElement or element-wise Assign.
type tuple[T any] struct {
	i, j int
	x    T
}

// Matrix is an opaque GraphBLAS matrix holding entries of type T. The zero
// value is not usable; create matrices with NewMatrix, Build, or Import.
//
// Matrix follows the non-blocking execution model of the C API:
// single-element mutations are buffered as pending tuples (insertions) and
// zombies (deletions) and assembled lazily by the next whole-matrix
// operation or an explicit Wait.
type Matrix[T any] struct {
	nr, nc int
	format Format
	csr    *cs[T] // primary storage, row-major; never nil after init
	csc    *cs[T] // column-major cache; nil when stale
	cscMu  sync.Mutex

	pend   []tuple[T]
	pendOp func(T, T) T // nil means "last value wins"
	nzomb  int
}

// NewMatrix creates an empty nrows-by-ncols matrix.
func NewMatrix[T any](nrows, ncols int) (*Matrix[T], error) {
	if nrows < 0 || ncols < 0 {
		return nil, opErrorf("newMatrix", ErrInvalidValue, "dims %d×%d", nrows, ncols)
	}
	return newMatrixRaw[T](nrows, ncols, FormatAuto), nil
}

// MustMatrix is NewMatrix for static dimensions known to be valid.
func MustMatrix[T any](nrows, ncols int) *Matrix[T] {
	a, err := NewMatrix[T](nrows, ncols)
	if err != nil {
		panic(err)
	}
	return a
}

func newMatrixRaw[T any](nr, nc int, f Format) *Matrix[T] {
	hyper := f == FormatHyper || (f == FormatAuto && nr >= hyperThresholdDim*hyperRatio)
	return &Matrix[T]{
		nr: nr, nc: nc, format: f,
		csr: emptyCS[T](nr, nc, hyper),
	}
}

// Nrows returns the number of rows.
func (a *Matrix[T]) Nrows() int { return a.nr }

// Ncols returns the number of columns.
func (a *Matrix[T]) Ncols() int { return a.nc }

// Nvals returns the number of stored entries, forcing pending work to
// complete first.
func (a *Matrix[T]) Nvals() int {
	c := a.materializedCSR()
	return c.nvals()
}

// SetFormat selects the storage layout, converting immediately when the
// matrix has no pending work (otherwise at the next materialization).
func (a *Matrix[T]) SetFormat(f Format) {
	a.format = f
	if a.nzomb == 0 && len(a.pend) == 0 {
		a.maybeConvertFormat()
	}
}

// Clear removes all entries, keeping the dimensions.
func (a *Matrix[T]) Clear() {
	a.csr = emptyCS[T](a.nr, a.nc, a.format == FormatHyper)
	a.csc = nil
	a.pend = nil
	a.pendOp = nil
	a.nzomb = 0
}

// Dup returns a deep copy.
func (a *Matrix[T]) Dup() *Matrix[T] {
	a.Wait()
	b := &Matrix[T]{nr: a.nr, nc: a.nc, format: a.format, csr: a.csr.clone()}
	return b
}

func (c *cs[T]) clone() *cs[T] {
	d := &cs[T]{nmajor: c.nmajor, nminor: c.nminor}
	d.p = append([]int(nil), c.p...)
	if c.h != nil {
		d.h = append([]int(nil), c.h...)
	}
	d.i = append([]int(nil), c.i...)
	d.x = append([]T(nil), c.x...)
	return d
}

// SetElement stores a(i,j) = x, buffering the update as a pending tuple:
// a sequence of e SetElement calls costs O(e log e) total when assembled,
// not O(e·(n+e)) (paper §II-A).
func (a *Matrix[T]) SetElement(i, j int, x T) error {
	if i < 0 || i >= a.nr || j < 0 || j >= a.nc {
		return ErrIndexOutOfBounds
	}
	if a.pendOp != nil {
		// Mixed pending semantics: flush accumulating updates first.
		a.Wait()
	}
	a.pend = append(a.pend, tuple[T]{i, j, x})
	a.csc = nil
	return nil
}

// SetElements buffers a batch of updates a(is[k], js[k]) = xs[k] as
// pending tuples in one call — the batch-ingest entry point the service's
// streaming write path lands edge batches through. Validation is
// all-or-nothing: every index is bounds-checked before any tuple is
// buffered, so a rejected batch leaves the matrix exactly as it was.
//
// dup selects the duplicate-combination semantics at the next assembly:
// nil means last value wins (matching SetElement — later tuples shadow
// earlier ones and overwrite stored entries), while a non-nil dup both
// combines duplicates within the buffered batch and accumulates a
// buffered value onto an already-stored entry (matching MergeElement).
// Choosing dup therefore chooses accumulate semantics, not replace. A
// batch with a non-nil dup first assembles anything already buffered
// (operator identity is unprovable across calls), so only runs of
// last-wins batches defer assembly across batch boundaries.
//
// A sequence of batches totalling e tuples still assembles in
// O(e log e): batching changes the constant (one bounds-check loop, one
// append), not the complexity class (paper §II-A).
func (a *Matrix[T]) SetElements(is, js []int, xs []T, dup BinaryOp[T, T, T]) error {
	if len(is) != len(js) || len(is) != len(xs) {
		return ErrDimensionMismatch
	}
	for k := range is {
		if is[k] < 0 || is[k] >= a.nr || js[k] < 0 || js[k] >= a.nc {
			return ErrIndexOutOfBounds
		}
	}
	if len(is) == 0 {
		return nil
	}
	if dup == nil {
		if a.pendOp != nil {
			a.Wait() // flush accumulating updates before last-wins ones
		}
	} else {
		// Two function values cannot be compared, so a batch carrying any
		// dup assembles whatever is already buffered rather than trusting
		// it used the same operator: correctness over deferral on the
		// (rarer) accumulate path.
		if len(a.pend) > 0 || a.pendOp != nil {
			a.Wait()
		}
		a.pendOp = dup
	}
	a.pend = slices.Grow(a.pend, len(is))
	for k := range is {
		a.pend = append(a.pend, tuple[T]{is[k], js[k], xs[k]})
	}
	a.csc = nil
	return nil
}

// accumElement buffers a(i,j) = a(i,j) ⊙ x (used by Assign with an
// accumulator). All buffered updates must share one operator; a change of
// operator forces assembly.
func (a *Matrix[T]) accumElement(i, j int, x T, op func(T, T) T) {
	if (a.pendOp == nil && len(a.pend) > 0) || (a.pendOp != nil && len(a.pend) == 0) {
		a.Wait()
	}
	a.pendOp = op
	a.pend = append(a.pend, tuple[T]{i, j, x})
	a.csc = nil
}

// MergeElement buffers a(i,j) ← op(a(i,j), x) (or a(i,j)=x if absent)
// through the pending-tuple mechanism. All buffered updates must share one
// operator; switching forces assembly.
func (a *Matrix[T]) MergeElement(i, j int, x T, op BinaryOp[T, T, T]) error {
	if i < 0 || i >= a.nr || j < 0 || j >= a.nc {
		return ErrIndexOutOfBounds
	}
	if op == nil {
		return ErrUninitialized
	}
	a.accumElement(i, j, x, op)
	return nil
}

// RemoveElement deletes the entry at (i,j) if present, tagging it as a
// zombie for batch reclamation at the next materialization.
func (a *Matrix[T]) RemoveElement(i, j int) error {
	if i < 0 || i >= a.nr || j < 0 || j >= a.nc {
		return ErrIndexOutOfBounds
	}
	if len(a.pend) > 0 {
		a.Wait()
	}
	c := a.csr
	k, ok := c.findMajor(i)
	if !ok {
		return nil
	}
	lo, hi := c.p[k], c.p[k+1]
	pos := lo + searchFlipped(c.i[lo:hi], j)
	if pos < hi && c.i[pos] == j { // live entry (zombies are negative)
		c.i[pos] = ^j // flip: zombie
		a.nzomb++
		a.csc = nil
	}
	return nil
}

// GetElement returns the entry at (i,j). It reports ErrNoValue if no entry
// is stored there. Reading forces pending work to complete.
func (a *Matrix[T]) GetElement(i, j int) (T, error) {
	var zero T
	if i < 0 || i >= a.nr || j < 0 || j >= a.nc {
		return zero, ErrIndexOutOfBounds
	}
	c := a.materializedCSR()
	k, ok := c.findMajor(i)
	if !ok {
		return zero, ErrNoValue
	}
	lo, hi := c.p[k], c.p[k+1]
	pos := lo + sort.SearchInts(c.i[lo:hi], j)
	if pos < hi && c.i[pos] == j {
		return c.x[pos], nil
	}
	return zero, ErrNoValue
}

// Pending reports how many updates are buffered (pending tuples) and how
// many stored entries are tagged for deletion (zombies). Diagnostic.
func (a *Matrix[T]) Pending() (tuples, zombies int) {
	return len(a.pend), a.nzomb
}

// Wait forces all pending work to complete: zombies are reclaimed and
// pending tuples assembled in a single O(n + e + p log p) pass. With an
// observer installed, each non-trivial assembly emits an op record; the
// no-pending early return stays allocation-free either way (it is on the
// hot path of every whole-matrix operation).
func (a *Matrix[T]) Wait() {
	if a.nzomb == 0 && len(a.pend) == 0 {
		return
	}
	ob := obs.Active()
	if ob == nil {
		a.assemble()
		return
	}
	pending, zombies := len(a.pend), a.nzomb
	t0 := ob.Now()
	a.assemble()
	ob.Op(obs.OpRecord{
		Op: "wait", Kernel: "assemble",
		Rows: a.nr, Cols: a.nc,
		NnzOut:  a.csr.nvals(),
		Pending: pending, Zombies: zombies,
		DurNanos: ob.Now() - t0,
	})
}

// assemble is Wait's worker: it must only run with pending work present.
func (a *Matrix[T]) assemble() {
	old := a.csr
	pend := a.pend
	op := a.pendOp
	a.pend = nil
	a.pendOp = nil
	nz := a.nzomb
	a.nzomb = 0

	// Fast path: assembling pending tuples into an empty matrix is
	// exactly a Build — this is what makes "a sequence of e SetElement
	// operations as fast as one Build of e tuples" (§II-A) true.
	if old.nvals() == 0 && nz == 0 {
		is := make([]int, len(pend))
		js := make([]int, len(pend))
		xs := make([]T, len(pend))
		for k, t := range pend {
			is[k], js[k], xs[k] = t.i, t.j, t.x
		}
		dup := op
		if dup == nil {
			dup = Second[T, T]()
		}
		c, err := assembleCS(old.nmajor, old.nminor, is, js, xs, dup)
		if err != nil {
			panic("grb: internal assembly error")
		}
		a.csr = c
		a.csc = nil
		a.maybeConvertFormat()
		return
	}

	// Sort pending tuples by (i,j), stable so that later updates win.
	pend = sortPendingTuples(pend)
	// Combine duplicate pending tuples.
	if len(pend) > 1 {
		w := 0
		for r := 1; r < len(pend); r++ {
			if pend[r].i == pend[w].i && pend[r].j == pend[w].j {
				if op != nil {
					pend[w].x = op(pend[w].x, pend[r].x)
				} else {
					pend[w].x = pend[r].x
				}
			} else {
				w++
				pend[w] = pend[r]
			}
		}
		pend = pend[:w+1]
	}

	est := old.nvals() - nz + len(pend)
	ni := make([]int, 0, est)
	nx := make([]T, 0, est)
	np := make([]int, 0, old.nvecs()+2)
	var nh []int
	hyper := old.h != nil
	if hyper {
		nh = make([]int, 0, old.nvecs()+2)
	}
	np = append(np, 0)

	pk := 0 // cursor into pend
	emitRow := func(row int, oi []int, ox []T) {
		// Merge existing row (skipping zombies) with pending tuples for
		// this row.
		s := 0
		for s < len(oi) || (pk < len(pend) && pend[pk].i == row) {
			var oj int
			haveO := false
			// Skip zombies.
			for s < len(oi) && oi[s] < 0 {
				s++
			}
			if s < len(oi) {
				oj = oi[s]
				haveO = true
			}
			haveP := pk < len(pend) && pend[pk].i == row
			switch {
			case haveO && (!haveP || oj < pend[pk].j):
				ni = append(ni, oj)
				nx = append(nx, ox[s])
				s++
			case haveP && (!haveO || pend[pk].j < oj):
				ni = append(ni, pend[pk].j)
				nx = append(nx, pend[pk].x)
				pk++
			case haveO && haveP: // equal column: combine
				v := pend[pk].x
				if op != nil {
					v = op(ox[s], pend[pk].x)
				}
				ni = append(ni, oj)
				nx = append(nx, v)
				s++
				pk++
			default:
				return
			}
		}
	}
	closeRow := func(row int) {
		if hyper {
			if len(ni) > np[len(np)-1] {
				nh = append(nh, row)
				np = append(np, len(ni))
			}
		} else {
			np = append(np, len(ni))
		}
	}

	if hyper {
		// Walk the union of stored rows and pending rows in order.
		k := 0
		for k < old.nvecs() || pk < len(pend) {
			var row int
			switch {
			case k >= old.nvecs():
				row = pend[pk].i
			case pk >= len(pend):
				row = old.h[k]
			default:
				row = min(old.h[k], pend[pk].i)
			}
			if k < old.nvecs() && old.h[k] == row {
				oi, ox := old.vec(k)
				emitRow(row, oi, ox)
				k++
			} else {
				emitRow(row, nil, nil)
			}
			closeRow(row)
		}
	} else {
		for row := 0; row < old.nmajor; row++ {
			oi, ox := old.vec(row)
			emitRow(row, oi, ox)
			closeRow(row)
		}
	}

	a.csr = &cs[T]{nmajor: old.nmajor, nminor: old.nminor, p: np, h: nh, i: ni, x: nx}
	a.csc = nil
	a.maybeConvertFormat()
}

// maybeConvertFormat moves between standard and hypersparse CSR according
// to the configured format and, for FormatAuto, the fill heuristic.
func (a *Matrix[T]) maybeConvertFormat() {
	c := a.csr
	switch a.format {
	case FormatCSR:
		if c.h != nil {
			a.csr = hyperToStandard(c)
		}
	case FormatHyper:
		if c.h == nil {
			a.csr = standardToHyper(c)
		}
	case FormatAuto:
		if c.h == nil && c.nmajor >= hyperThresholdDim {
			nonEmpty := 0
			for k := 0; k < c.nmajor; k++ {
				if c.p[k+1] > c.p[k] {
					nonEmpty++
				}
			}
			if nonEmpty < c.nmajor/hyperRatio {
				a.csr = standardToHyper(c)
			}
		} else if c.h != nil &&
			(c.nmajor < hyperThresholdDim || c.nvecs() >= c.nmajor/hyperRatio) {
			a.csr = hyperToStandard(c)
		}
	}
}

func standardToHyper[T any](c *cs[T]) *cs[T] {
	nonEmpty := 0
	for k := 0; k < c.nmajor; k++ {
		if c.p[k+1] > c.p[k] {
			nonEmpty++
		}
	}
	h := make([]int, 0, nonEmpty)
	p := make([]int, 1, nonEmpty+1)
	for k := 0; k < c.nmajor; k++ {
		if c.p[k+1] > c.p[k] {
			h = append(h, k)
			p = append(p, c.p[k+1])
		}
	}
	return &cs[T]{nmajor: c.nmajor, nminor: c.nminor, p: p, h: h, i: c.i, x: c.x}
}

func hyperToStandard[T any](c *cs[T]) *cs[T] {
	p := make([]int, c.nmajor+1)
	for k := 0; k < c.nvecs(); k++ {
		p[c.h[k]+1] = c.p[k+1] - c.p[k]
	}
	for k := 0; k < c.nmajor; k++ {
		p[k+1] += p[k]
	}
	return &cs[T]{nmajor: c.nmajor, nminor: c.nminor, p: p, i: c.i, x: c.x}
}

// Build assembles a matrix from coordinate-form tuples, combining
// duplicates with dup (nil means duplicates are an error).
func (a *Matrix[T]) Build(is, js []int, xs []T, dup BinaryOp[T, T, T]) error {
	if len(is) != len(js) || len(is) != len(xs) {
		return opErrorf("build", ErrInvalidValue, "tuple slices have lengths %d, %d, %d", len(is), len(js), len(xs))
	}
	for k := range is {
		if is[k] < 0 || is[k] >= a.nr || js[k] < 0 || js[k] >= a.nc {
			return opErrorf("build", ErrIndexOutOfBounds, "tuple (%d,%d), matrix is %d×%d", is[k], js[k], a.nr, a.nc)
		}
	}
	// Build requires an empty matrix; staleness is unobservable because the
	// stored-entry read is paired with the pending-buffer check, and the
	// raw csr read is safe because every format keeps csr canonical.
	if a.csr.nvals() != 0 || len(a.pend) > 0 { //grblint:ignore pending-tuples,format-invariants: read paired with pend check; csr is canonical in every format
		return opErrorf("build", ErrInvalidValue, "matrix is not empty")
	}
	c, err := assembleCS(a.nr, a.nc, is, js, xs, dup)
	if err != nil {
		return err
	}
	a.csr = c
	a.csc = nil
	a.maybeConvertFormat()
	return nil
}

// sortPendingTuples orders pend by (i, j) with original order preserved on
// ties (later updates win when duplicates combine left-to-right). Large
// batches are chunk-sorted concurrently and k-way merged; the index
// tiebreak makes the order total, so the result is identical at any
// parallelism.
func sortPendingTuples[T any](pend []tuple[T]) []tuple[T] {
	if len(pend) <= 1 {
		return pend
	}
	if len(pend) < parallelSortThreshold || workers() <= 1 {
		sort.SliceStable(pend, func(u, v int) bool {
			if pend[u].i != pend[v].i {
				return pend[u].i < pend[v].i
			}
			return pend[u].j < pend[v].j
		})
		return pend
	}
	perm := make([]int, len(pend))
	for k := range perm {
		perm[k] = k
	}
	parallelSortPerm(perm, func(a, b int) bool {
		if pend[a].i != pend[b].i {
			return pend[a].i < pend[b].i
		}
		if pend[a].j != pend[b].j {
			return pend[a].j < pend[b].j
		}
		return a < b
	})
	sorted := make([]tuple[T], len(pend))
	for k, idx := range perm {
		sorted[k] = pend[idx]
	}
	return sorted
}

// assembleCS sorts tuples by (major, minor), combines duplicates, and
// compresses them into hypersparse form (standard form is derived later by
// maybeConvertFormat if appropriate). The tuple sort — the dominant cost
// of batch build — runs as a parallel chunk sort plus multiway merge,
// keeping §II-A's "as fast as batch build" property at scale.
func assembleCS[T any](nmajor, nminor int, is, js []int, xs []T, dup BinaryOp[T, T, T]) (*cs[T], error) {
	n := len(is)
	perm := make([]int, n)
	for k := range perm {
		perm[k] = k
	}
	parallelSortPerm(perm, func(a, b int) bool {
		if is[a] != is[b] {
			return is[a] < is[b]
		}
		if js[a] != js[b] {
			return js[a] < js[b]
		}
		return a < b
	})

	pi := make([]int, 0, n)
	px := make([]T, 0, n)
	rows := make([]int, 0, 64) // distinct major ids, ascending
	p := make([]int, 0, 65)    // start offset of each stored row
	lastI, lastJ := -1, -1
	for _, k := range perm {
		i, j, x := is[k], js[k], xs[k]
		if i == lastI && j == lastJ {
			if dup == nil {
				return nil, ErrInvalidValue
			}
			px[len(px)-1] = dup(px[len(px)-1], x)
			continue
		}
		if i != lastI {
			rows = append(rows, i)
			p = append(p, len(pi))
		}
		pi = append(pi, j)
		px = append(px, x)
		lastI, lastJ = i, j
	}
	p = append(p, len(pi))
	if len(rows) == 0 {
		p = []int{0}
	}
	return &cs[T]{nmajor: nmajor, nminor: nminor, p: p, h: rows, i: pi, x: px}, nil
}
