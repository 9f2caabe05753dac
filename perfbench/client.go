package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"lagraph/internal/svc"
)

// client drives the service over HTTP with at most two connections per
// node. Redirects are not followed: the benchmark addresses primaries
// and replicas directly, and a 307 means a replica does not hold the
// graph yet.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2,
			DisableCompression: true, IdleConnTimeout: time.Minute,
		},
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		Timeout:       2 * time.Minute,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call posts v as JSON (GET when v is nil) and decodes a 2xx body into
// out. It returns the status, or 0 with an error on a transport failure.
func (c *client) call(method, url string, v, out any) (int, error) {
	var body io.Reader
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, err
	}
	if v != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

func (c *client) upload(base, name string, in *inputs) error {
	_, err := c.call("POST", base+"/v1/graphs", svc.LoadRequest{Name: name, Undirected: true, MMIO: in.mmio}, nil)
	return err
}

func (c *client) drop(base, name string) error {
	_, err := c.call("DELETE", base+"/v1/graphs/"+name, nil, nil)
	return err
}

// query runs one algorithm and reports the client-side latency.
func (c *client) query(base, name string, q svc.QueryRequest) (*svc.QueryResponse, int, time.Duration, error) {
	var resp svc.QueryResponse
	t0 := time.Now()
	code, err := c.call("POST", base+"/v1/graphs/"+name+"/query", q, &resp)
	return &resp, code, time.Since(t0), err
}

// ingest posts one edge batch and reports the client-side latency.
func (c *client) ingest(base, name string, edges []svc.EdgeTuple) (*svc.EdgesResponse, int, time.Duration, error) {
	var resp svc.EdgesResponse
	t0 := time.Now()
	code, err := c.call("POST", base+"/v1/graphs/"+name+"/edges", svc.EdgesRequest{Edges: edges}, &resp)
	return &resp, code, time.Since(t0), err
}

// promSample reads /metrics into name{labels} → value.
func (c *client) promSample(base string) (map[string]float64, error) {
	resp, err := c.hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		k := strings.LastIndexByte(line, ' ')
		if k < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[k+1:], 64); err == nil {
			out[line[:k]] = v
		}
	}
	return out, sc.Err()
}
