package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"lagraph/internal/svc"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused it (0 for the
// request's outer span). Times are nanoseconds since the run's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps every span in memory; it is written out when the run
// ends. A nil *spanLog records nothing (the untraced run).
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	next  int
	reqs  int
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) at(t time.Time) int64 { return int64(t.Sub(l.epoch)) }

// request opens a new request and returns its ID.
func (l *spanLog) request() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reqs++
	return l.reqs
}

// add records a span and returns its ID.
func (l *spanLog) add(req, parent int, name string, start, end int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	l.spans = append(l.spans, span{ID: l.next, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return l.next
}

// selfTimes returns each span's self time in ms — its duration minus the
// part of its interval that its child spans cover — grouped by name, and
// for each request the worst relative gap between the sum of its spans'
// self times and its outer span's duration.
func (l *spanLog) selfTimes() (byName map[string][]float64, worstGap float64, requests int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName = map[string][]float64{}
	selfSum := map[int]int64{}
	outer := map[int]int64{}
	for _, s := range l.spans {
		self := (s.End - s.Start) - covered(s, children[s.ID])
		byName[s.Name] = append(byName[s.Name], float64(self)/1e6)
		selfSum[s.Req] += self
		if s.Parent == 0 {
			outer[s.Req] = s.End - s.Start
		}
	}
	for req, d := range outer {
		if d <= 0 {
			continue
		}
		gap := float64(selfSum[req]-d) / float64(d)
		if gap < 0 {
			gap = -gap
		}
		if gap > worstGap {
			worstGap = gap
		}
	}
	return byName, worstGap, len(outer)
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	return total + curE - curS
}

// write dumps every span as JSON.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// query records one traced read: the outer request, the pre-query
// Entry.View wait, the HTTP round trip (svc), and inside it the server's
// elapsed_ms (lagraph) with one child per iteration record. The server
// reports durations, not clock readings, so a server-side span is
// centred in its parent; self times do not depend on the placement.
func (l *spanLog) query(t0, entered, sent, done time.Time, algo string, r *svc.QueryResponse) {
	req := l.request()
	root := l.add(req, 0, "request.query", l.at(t0), l.at(done))
	l.add(req, root, "catalog.view_wait", l.at(t0), l.at(entered))
	s := l.add(req, root, "svc.query", l.at(sent), l.at(done))
	el := int64(r.ElapsedMS * 1e6)
	start := l.at(sent) + (l.at(done)-l.at(sent)-el)/2
	a := l.add(req, s, "lagraph."+algo, start, start+el)
	if r.Trace == nil {
		return
	}
	at := start
	for _, it := range r.Trace.Iters {
		l.add(req, a, "lagraph."+algo+".iter", at, at+it.DurNanos)
		at += it.DurNanos
	}
}
