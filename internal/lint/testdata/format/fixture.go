// Package grb is a format-invariants fixture: a miniature of the real
// package's storage types, named identically so the check's type-name
// driven analysis applies.
package grb

// cs mimics the compressed-sparse core.
type cs struct {
	p, i []int
	x    []float64
}

func (c *cs) nvals() int { return c.p[len(c.p)-1] }

// Matrix mimics the multi-format holder.
type Matrix struct {
	csr  *cs
	csc  *cs
	pend []int
}

// Wait assembles pending work (exempt: format machinery).
func (a *Matrix) Wait() {
	if len(a.pend) > 0 {
		a.csr = &cs{p: []int{0}}
		a.pend = nil
		a.csc = nil
	}
}

// materializedCSR is the blessed accessor (exempt).
func (a *Matrix) materializedCSR() *cs {
	a.Wait()
	return a.csr
}

// badDirectRead bypasses the accessor: even after Wait, a raw field read
// skips the format dispatch.
func (a *Matrix) badDirectRead() int {
	a.Wait()
	return a.csr.nvals() // WANT format-invariants
}

// badColumnRead reads the column cache field directly.
func (a *Matrix) badColumnRead() *cs {
	return a.csc // WANT format-invariants
}

// goodAccessor goes through the dispatch accessor.
func (a *Matrix) goodAccessor() int {
	return a.materializedCSR().nvals()
}

// goodInvalidation writes the storage fields: mutation sites invalidate
// caches directly, which is part of the protocol, not a read.
func (a *Matrix) goodInvalidation(c *cs) {
	a.csr = c
	a.csc = nil
}

// goodIgnored documents a deliberate bypass with a directive.
func (a *Matrix) goodIgnored() *cs {
	return a.csc //grblint:ignore format-invariants fixture demonstrates suppression
}
