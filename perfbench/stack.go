package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"lagraph/internal/catalog"
	"lagraph/internal/cluster"
	"lagraph/internal/obs"
	"lagraph/internal/store"
	"lagraph/internal/svc"
	"lagraph/internal/wal"
)

// node is one lagraphd stack running in this process, wired the way
// cmd/lagraphd wires it: a catalog, a snapshot store with its persister,
// a WAL with the production fsync setting, an optional cluster member,
// and svc.Server on a loopback listener. The background snapshotter is
// deliberately absent, so no timer-driven work lands in some runs and
// not others.
type node struct {
	id   string
	dir  string
	url  string
	cat  *catalog.Catalog
	pers *store.Persister
	jl   *wal.Log
	cn   *cluster.Node
	srv  *svc.Server
	hs   *http.Server
	done chan error
	// Boot phase timings (the restart measurement).
	walOpen, loadAll time.Duration
	replay           store.ReplayStats
}

// listen reserves a loopback port before the node exists, so a cluster
// topology can name every member's URL up front.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startNode opens (or recovers) the data dir and serves on ln. counters
// is the process-wide obs sink, installed by the caller.
func startNode(id, dir string, ln net.Listener, top *cluster.Topology, counters *obs.Counters, logf func(string, ...any)) (*node, error) {
	n := &node{id: id, dir: dir, url: "http://" + ln.Addr().String(), cat: catalog.New(), done: make(chan error, 1)}
	st, err := store.Open(dir)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n.pers = store.NewPersister(st, n.cat)
	t0 := time.Now()
	n.jl, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	n.walOpen = time.Since(t0)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n.pers.AttachWAL(n.jl)
	if top != nil {
		n.cn, err = cluster.New(cluster.Config{
			Self: id, Topology: *top, Catalog: n.cat, Persister: n.pers, Logf: logf,
		})
		if err != nil {
			ln.Close()
			n.jl.Close()
			return nil, err
		}
	}
	n.srv = svc.New(n.cat, counters, svc.Config{Persister: n.pers, Cluster: n.cn, GateReady: true})
	n.hs = &http.Server{Handler: n.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	//grblint:ignore goroutine-lifecycle: Serve returns when close shuts the server down, and close waits on done (buffered)
	go func() { n.done <- n.hs.Serve(ln) }()

	t0 = time.Now()
	events, err := n.pers.LoadAll()
	n.loadAll = time.Since(t0)
	if err == nil {
		for _, ev := range events {
			if ev.Err != nil {
				err = fmt.Errorf("recover %s: %w", ev.File, ev.Err)
				break
			}
		}
	}
	if err != nil {
		n.close()
		return nil, err
	}
	n.replay = n.pers.ReplayStats()
	n.srv.MarkBootReady()
	if n.cn != nil {
		n.cn.Start(context.Background())
	}
	return n, nil
}

// close stops replication, then the listener, then seals the journal —
// lagraphd's drain order minus the final flush: the restart measurement
// must replay every acknowledged batch from the WAL.
func (n *node) close() error {
	if n.cn != nil {
		n.cn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := n.jl.Close(); err == nil {
		err = cerr
	}
	return err
}

// startCluster starts ids as one static-topology cluster with the given
// replica count and the default poll interval.
func startCluster(dir string, ids []string, replicas int, counters *obs.Counters, logf func(string, ...any)) ([]*node, error) {
	top := &cluster.Topology{Epoch: 1, Replicas: replicas}
	lns := make([]net.Listener, len(ids))
	for i, id := range ids {
		ln, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		top.Nodes = append(top.Nodes, cluster.NodeInfo{ID: id, URL: "http://" + ln.Addr().String()})
	}
	var nodes []*node
	for i, id := range ids {
		nd, err := startNode(id, filepath.Join(dir, id), lns[i], top, counters, logf)
		if err != nil {
			for _, l := range lns[i+1:] {
				l.Close()
			}
			closeAll(nodes)
			return nil, err
		}
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

func closeAll(nodes []*node) error {
	var err error
	for _, nd := range nodes {
		if cerr := nd.close(); err == nil {
			err = cerr
		}
	}
	return err
}
