package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// opResult is what the client saw for one op. Bodies are kept raw and
// only decoded by the checks after the timed phase.
type opResult struct {
	Op       op
	Began    time.Time // when the op's first request was sent
	Latency  time.Duration
	Statuses []int  // one per HTTP call; 0 for a transport error
	Body     []byte // plan ops: response body; job ops: the NDJSON event stream
	JobID    string
	Err      error
}

// ok reports whether every HTTP call of the op returned 2xx.
func (r *opResult) ok() bool {
	if r.Err != nil || len(r.Statuses) == 0 {
		return false
	}
	for _, s := range r.Statuses {
		if s < 200 || s > 299 {
			return false
		}
	}
	return true
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// payload marshals the op's request body before its timer starts.
func (w *workloadGen) payload(o op) ([]byte, error) {
	switch w.name {
	case "plan-hot":
		return json.Marshal(w.insts[o.Insts[0]].wire())
	case "plan-cold":
		reqs := make([]planReq, len(o.Insts))
		for i, idx := range o.Insts {
			reqs[i] = w.insts[idx].wire()
		}
		return json.Marshal(map[string]any{"requests": reqs})
	default:
		return json.Marshal(w.jobWire(o.Job))
	}
}

// do executes one op against chainserve: one POST for plans; for jobs a
// POST /v1/jobs followed by reading GET /v1/jobs/{id}/events to EOF.
// buf is the calling client's read buffer.
func (w *workloadGen) do(ctx context.Context, c *http.Client, base string, o op, buf *bytes.Buffer) opResult {
	res := opResult{Op: o}
	body, err := w.payload(o)
	if err != nil {
		res.Err = err
		return res
	}
	route := "/v1/plan"
	switch w.name {
	case "plan-cold":
		route = "/v1/plan/batch"
	case "jobs-durable":
		route = "/v1/jobs"
	}
	start := time.Now()
	res.Began = start
	status, err := call(ctx, c, http.MethodPost, base+route, body, buf)
	res.Statuses = append(res.Statuses, status)
	if err != nil || status/100 != 2 || w.name != "jobs-durable" {
		res.Latency, res.Err = time.Since(start), err
		res.Body = w.keep(o, buf.Bytes())
		return res
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(buf.Bytes(), &created); err != nil || created.ID == "" {
		res.Latency, res.Err = time.Since(start), fmt.Errorf("job create: bad body %q", buf.Bytes())
		return res
	}
	res.JobID = created.ID
	status, err = call(ctx, c, http.MethodGet, base+"/v1/jobs/"+created.ID+"/events", nil, buf)
	res.Latency = time.Since(start)
	res.Statuses = append(res.Statuses, status)
	res.Body, res.Err = bytes.Clone(buf.Bytes()), err
	return res
}

// keep returns the response bytes an op retains for the checks.
// Plan-hot answers repeat per instance, so an answer equal to the first
// one seen for its instance shares that copy.
func (w *workloadGen) keep(o op, b []byte) []byte {
	if w.name != "plan-hot" {
		return bytes.Clone(b)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	first, ok := w.firstBody[o.Insts[0]]
	if ok && bytes.Equal(first, b) {
		return first
	}
	c := bytes.Clone(b)
	if !ok {
		w.firstBody[o.Insts[0]] = c
	}
	return c
}

// call sends one request and reads the whole response into buf.
func call(ctx context.Context, c *http.Client, method, url string, body []byte, buf *bytes.Buffer) (int, error) {
	buf.Reset()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// fetch is call with a fresh buffer, for requests outside the timed
// phase.
func fetch(ctx context.Context, c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var buf bytes.Buffer
	status, err := call(ctx, c, method, url, body, &buf)
	return status, buf.Bytes(), err
}

// closedLoop runs w.conns clients, each sending its next op only after
// the previous one completed, until the deadline passes (ops started
// before it run to completion) or limit ops were issued (limit > 0).
// Results come back in issue order.
func (w *workloadGen) closedLoop(ctx context.Context, c *http.Client, base string,
	deadline time.Time, limit int, next func() op) []opResult {
	var (
		mu      sync.Mutex
		results []opResult
		wg      sync.WaitGroup
	)
	for i := 0; i < w.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				mu.Lock()
				if (limit > 0 && len(results) >= limit) || (limit <= 0 && !time.Now().Before(deadline)) {
					mu.Unlock()
					return
				}
				idx := len(results)
				o := next()
				results = append(results, opResult{})
				mu.Unlock()
				r := w.do(ctx, c, base, o, &buf)
				mu.Lock()
				results[idx] = r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results
}
