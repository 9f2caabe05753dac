// Package lagraph is the algorithm collection the paper proposes: the
// "library of high-level graph algorithms built on top of the GraphBLAS"
// of §V, together with the support utilities (§VI): cached graph
// properties, degree computations and basic measurements.
//
// Every algorithm here is formulated in GraphBLAS operations (mxm, mxv,
// vxm, eWise*, apply, select, reduce, assign, extract) on the grb
// substrate; classic pointer-chasing counterparts for testing and
// benchmarking live in internal/baseline.
package lagraph

import (
	"errors"
	"sync"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/obs"
)

// Kind distinguishes directed adjacency from undirected (symmetric)
// adjacency.
type Kind int

const (
	// Directed adjacency: A(i,j) is the edge i→j.
	Directed Kind = iota
	// Undirected adjacency: A must be structurally symmetric.
	Undirected
)

// Errors reported by the algorithms.
var (
	// ErrNotUndirected is returned by algorithms that require symmetric
	// adjacency (triangle counting, k-truss, ...).
	ErrNotUndirected = errors.New("lagraph: algorithm requires an undirected graph")
	// ErrBadArgument is returned for out-of-range sources and similar.
	ErrBadArgument = errors.New("lagraph: bad argument")
	// ErrNoConvergence is returned when an iterative method hits its
	// iteration cap.
	ErrNoConvergence = errors.New("lagraph: iteration limit reached without convergence")
)

// Graph bundles a GraphBLAS adjacency matrix with cached derived
// properties, in the style of the LAGraph_Graph object: each property is
// computed on demand, on its own, and reused by the algorithms until the
// next InvalidateCache.
//
// The property getters are safe to call from concurrent readers once A
// has no pending work: the first caller builds a property under mu and
// every later caller gets the cached object. A is never written by a
// getter; assembling its pending tuples is the owner's job (the catalog
// does it under its exclusive lock).
type Graph struct {
	// A is the (weighted) adjacency matrix; A(i,j) is the weight of edge
	// i→j.
	A    *grb.Matrix[float64]
	Kind Kind

	mu        sync.Mutex
	at        *grb.Matrix[float64] //grblint:guardedby mu
	pattern   *grb.Matrix[int64]   //grblint:guardedby mu
	outDeg    *grb.Vector[int64]   //grblint:guardedby mu
	inDeg     *grb.Vector[int64]   //grblint:guardedby mu
	nselfLoop int                  //grblint:guardedby mu
	selfOK    bool                 //grblint:guardedby mu
	symmetric bool                 //grblint:guardedby mu
	symOK     bool                 //grblint:guardedby mu
}

// InvalidateCache drops the cached derived properties (transpose,
// pattern, degrees, self-loop count, symmetry). Call it after mutating A
// directly; the algorithms otherwise treat the adjacency as immutable, as
// LAGraph does.
func (g *Graph) InvalidateCache() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.at = nil
	g.pattern = nil
	g.outDeg = nil
	g.inDeg = nil
	g.selfOK = false
	g.symOK = false
}

// NewGraph wraps an adjacency matrix. The matrix is adopted, not copied.
func NewGraph(a *grb.Matrix[float64], kind Kind) (*Graph, error) {
	if a == nil {
		return nil, grb.ErrUninitialized
	}
	if a.Nrows() != a.Ncols() {
		return nil, grb.ErrDimensionMismatch
	}
	return &Graph{A: a, Kind: kind}, nil
}

// FromEdgeList builds a Graph from a generated edge list.
func FromEdgeList(e *gen.EdgeList, kind Kind) *Graph {
	g, err := NewGraph(e.Matrix(), kind)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.A.Nrows() }

// NEdges returns the number of stored adjacency entries.
func (g *Graph) NEdges() int { return g.A.Nvals() }

// observeBuild reports one property build to the process-wide observer
// as a "property" op record, so traces and obs.Counters show which
// properties a query paid for. Call the returned func when the build is
// done.
func (g *Graph) observeBuild(property string) func() {
	ob := obs.Active()
	if ob == nil {
		return func() {}
	}
	t0 := ob.Now()
	return func() {
		ob.Op(obs.OpRecord{
			Op: "property", Kernel: property,
			Rows: g.A.Nrows(), Cols: g.A.Ncols(), NnzA: g.A.Nvals(),
			DurNanos: ob.Now() - t0,
		})
	}
}

// AT returns the cached transpose of the adjacency matrix, computing it on
// first use. For undirected graphs it is A itself.
func (g *Graph) AT() *grb.Matrix[float64] {
	if g.Kind == Undirected {
		return g.A
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.at == nil {
		defer g.observeBuild("transpose")()
		at := grb.MustMatrix[float64](g.A.Ncols(), g.A.Nrows())
		if err := grb.Transpose[float64, bool](at, nil, nil, g.A, nil); err != nil {
			panic(err)
		}
		at.Wait()
		g.at = at
	}
	return g.at
}

// OutDegree returns the cached out-degree vector (number of stored entries
// per row; no entry for a row with none).
func (g *Graph) OutDegree() *grb.Vector[int64] {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.outDeg == nil {
		defer g.observeBuild("out-degree")()
		g.outDeg = g.entryCounts(nil)
	}
	return g.outDeg
}

// InDegree returns the cached in-degree vector (number of stored entries
// per column).
func (g *Graph) InDegree() *grb.Vector[int64] {
	if g.Kind == Undirected {
		return g.OutDegree()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inDeg == nil {
		defer g.observeBuild("in-degree")()
		g.inDeg = g.entryCounts(grb.DescT0)
	}
	return g.inDeg
}

// entryCounts counts the stored entries of each row (each column with
// DescT0) of A.
func (g *Graph) entryCounts(desc *grb.Descriptor) *grb.Vector[int64] {
	deg, err := grb.EntryCounts(g.A, desc)
	if err != nil {
		panic(err)
	}
	return deg
}

// NSelfLoops counts diagonal entries (cached).
func (g *Graph) NSelfLoops() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.selfOK {
		defer g.observeBuild("self-loops")()
		d := grb.MustMatrix[float64](g.A.Nrows(), g.A.Ncols())
		if err := grb.SelectMatrix[float64, bool](d, nil, nil, grb.Diag[float64](0), g.A, nil); err != nil {
			panic(err)
		}
		g.nselfLoop = d.Nvals()
		g.selfOK = true
	}
	return g.nselfLoop
}

// CachedIsSymmetric is IsSymmetric computed once and cached until the
// next InvalidateCache.
func (g *Graph) CachedIsSymmetric() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.symOK {
		defer g.observeBuild("symmetry")()
		g.symmetric = g.IsSymmetric()
		g.symOK = true
	}
	return g.symmetric
}

// IsSymmetric checks structural and numerical symmetry of the adjacency.
// It computes the answer afresh on every call; CachedIsSymmetric keeps it.
func (g *Graph) IsSymmetric() bool {
	at := grb.MustMatrix[float64](g.A.Ncols(), g.A.Nrows())
	if err := grb.Transpose[float64, bool](at, nil, nil, g.A, nil); err != nil {
		panic(err)
	}
	if at.Nvals() != g.A.Nvals() {
		return false
	}
	eq := grb.MustMatrix[bool](g.A.Nrows(), g.A.Ncols())
	if err := grb.EWiseMultMatrix[float64, float64, bool, bool](eq, nil, nil, grb.Eq[float64](), g.A, at, nil); err != nil {
		panic(err)
	}
	if eq.Nvals() != g.A.Nvals() {
		return false // patterns differ
	}
	allTrue, err := grb.ReduceMatrixToScalar(grb.LAndMonoid(), eq)
	if err != nil {
		return false
	}
	return allTrue
}

// requireUndirected returns ErrNotUndirected unless the graph is declared
// undirected.
func (g *Graph) requireUndirected() error {
	if g.Kind != Undirected {
		return ErrNotUndirected
	}
	return nil
}

// checkSource validates a source vertex id.
func (g *Graph) checkSource(src int) error {
	if src < 0 || src >= g.N() {
		return ErrBadArgument
	}
	return nil
}

// Stats summarizes a graph: the "basic measurements" support utility the
// paper lists (§VI).
type Stats struct {
	N          int
	NEdges     int
	NSelfLoops int
	MinDegree  int64
	MaxDegree  int64
	AvgDegree  float64
	Density    float64
}

// Measure computes basic graph measurements.
func Measure(g *Graph) Stats {
	s := Stats{N: g.N(), NEdges: g.NEdges(), NSelfLoops: g.NSelfLoops()}
	deg := g.OutDegree()
	mx, err := grb.ReduceVectorToScalar(grb.MaxMonoid[int64](), deg)
	if err == nil && deg.Nvals() > 0 {
		s.MaxDegree = mx
	}
	if deg.Nvals() == g.N() {
		mn, err := grb.ReduceVectorToScalar(grb.MinMonoid[int64](), deg)
		if err == nil {
			s.MinDegree = mn
		}
	} // vertices with no entries have degree 0
	if s.N > 0 {
		s.AvgDegree = float64(s.NEdges) / float64(s.N)
		s.Density = float64(s.NEdges) / (float64(s.N) * float64(s.N))
	}
	return s
}

// DegreeHistogram returns counts of vertices by out-degree (index =
// degree), the degree-distribution measurement used to sanity-check
// scale-free generators.
func DegreeHistogram(g *Graph) []int {
	deg := g.OutDegree()
	is, xs := deg.ExtractTuples()
	maxd := int64(0)
	for _, d := range xs {
		if d > maxd {
			maxd = d
		}
	}
	hist := make([]int, maxd+1)
	for _, d := range xs {
		hist[d]++
	}
	hist[0] += g.N() - len(is)
	return hist
}

// PatternInt64 returns the adjacency pattern with all weights replaced by
// 1 (int64), the form several §V algorithms start from. The result is
// cached; callers must not mutate it.
func (g *Graph) PatternInt64() *grb.Matrix[int64] {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pattern == nil {
		defer g.observeBuild("pattern")()
		p := grb.MustMatrix[int64](g.A.Nrows(), g.A.Ncols())
		if err := grb.ApplyMatrix[float64, int64, bool](p, nil, nil, grb.One[float64, int64](), g.A, nil); err != nil {
			panic(err)
		}
		p.Wait()
		g.pattern = p
	}
	return g.pattern
}
