// Package catalog is the resident-graph registry of the service layer: a
// named collection of lagraph.Graph objects, each wrapped in an Entry
// that guards the graph behind a reader/writer locking protocol, so that
// many concurrent queries can share one graph while ingestion mutates it.
//
// # Locking protocol
//
// The underlying grb substrate promises that read-only operations on a
// fully assembled object are safe from any number of goroutines, but
// three kinds of lazy state make a "read" secretly a write:
//
//  1. pending tuples and zombies (the non-blocking execution model):
//     assembled by the next whole-object operation or Wait;
//  2. the column-oriented (CSC) cache built on first use by pull/dot
//     kernels (built lazily under the matrix's own mutex);
//  3. the Graph property cache (AT, degrees, pattern, self-loop count,
//     symmetry), computed on first use by whichever query needs it
//     (under the graph's own mutex).
//
// Only the first needs the entry's exclusive lock: the other two are
// guarded where they live, so concurrent readers may build them. Readers
// enter through View, which assembles the adjacency under the exclusive
// lock when it has pending work (Matrix.Materialize: pending tuples,
// zombies, then the CSC cache) and then runs the caller with the read
// lock held. Each derived property is built on demand, on its own, and
// kept until the next mutation, as in LAGraph v1's cached-property
// model, so a query pays only for the properties it touches. Writers
// enter through Ingest, which holds the exclusive lock, invalidates the
// property cache and bumps the generation counter. It leaves its batch
// pending for the next reader to assemble, so a reader never observes
// pending tuples.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"lagraph/internal/lagraph"
)

// Errors reported by the catalog.
var (
	// ErrNotFound is returned when a named graph is not registered.
	ErrNotFound = errors.New("catalog: graph not found")
	// ErrExists is returned by Add when the name is already registered.
	ErrExists = errors.New("catalog: graph already registered")
	// ErrReadOnly is returned by Ingest on a replica entry: a graph
	// this node holds as a replication follower accepts mutations only
	// through the replication apply path (Replicate); direct writes must
	// go to the primary.
	ErrReadOnly = errors.New("catalog: graph is a read-only replica")
)

// Stats aggregates catalog-wide activity counters.
type Stats struct {
	Graphs  int   `json:"graphs"`
	Views   int64 `json:"views"`   // read-locked query executions
	Ingests int64 `json:"ingests"` // write-locked mutations
	// Warms counts the assemblies View ran under the exclusive lock: one
	// per read that found pending tuples or zombies (the JSON name and
	// the lagraphd_catalog_warms_total metric keep the old name).
	Warms int64 `json:"warms"`
}

// Catalog is a concurrency-safe name → Entry registry.
type Catalog struct {
	mu      sync.RWMutex
	entries map[string]*Entry //grblint:guardedby mu

	views   atomic.Int64
	ingests atomic.Int64
	warms   atomic.Int64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{entries: map[string]*Entry{}}
}

// Add registers g under name. The graph is adopted: after Add, the caller
// must not touch g except through the returned Entry.
func (c *Catalog) Add(name string, g *lagraph.Graph) (*Entry, error) {
	if g == nil {
		return nil, fmt.Errorf("catalog: add %q: nil graph", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	e := &Entry{name: name, g: g, cat: c}
	c.entries[name] = e
	return e, nil
}

// Get returns the entry registered under name.
func (c *Catalog) Get(name string) (*Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e, nil
}

// Drop unregisters name. In-flight queries holding the entry's read lock
// finish normally; the graph is garbage once they release it.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(c.entries, name)
	return nil
}

// Names returns the registered names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.entries))
	for n := range c.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stats snapshots the catalog counters.
func (c *Catalog) Stats() Stats {
	c.mu.RLock()
	n := len(c.entries)
	c.mu.RUnlock()
	return Stats{
		Graphs:  n,
		Views:   c.views.Load(),
		Ingests: c.ingests.Load(),
		Warms:   c.warms.Load(),
	}
}
