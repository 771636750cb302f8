package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the load generator's concurrency: at most one client
// goroutine, each with one connection, per CPU of the 2-vCPU machines
// the benchmark was sized on.
const clients = 2

// closedClients is the closed loop's concurrency. One client keeps the
// throughput a measure of one request path: with two, client and server
// goroutines fill both CPUs, and the figure follows how much of the
// second CPU a shared host lends the process from one run to the next.
const closedClients = 1

type reqKind uint8

const (
	kindCheck reqKind = iota
	kindValidate
	kindInfer
	kindIngest
)

// request is one pre-built HTTP request of a plan.
type request struct {
	kind   reqKind
	url    string
	ctype  string
	body   []byte
	st     *stream
	batch  int
	infer  *inferColumn
	ingest *ingestTable
}

func (r *request) values() int {
	if r.kind == kindCheck || r.kind == kindValidate {
		return len(r.st.batches[r.batch])
	}
	return 0
}

// outcome is one answered (or failed) request, decoded just enough for
// the oracle.
type outcome struct {
	req *request
	// latency is measured from the scheduled send time in the open
	// loop and from the actual send time otherwise; late is how far
	// behind schedule the send went out.
	latency time.Duration
	late    time.Duration
	status  int
	err     error

	check    checkReply
	report   validateReply
	inferred inferReply
	ingested ingestReply
	// doneAt is when the answer arrived.
	doneAt time.Time
}

type checkReply struct {
	Version  int `json:"version"`
	Decision struct {
		Verdict struct {
			Total         int    `json:"total"`
			NonConforming int    `json:"non_conforming"`
			Action        string `json:"action"`
			Seq           int    `json:"seq"`
		} `json:"verdict"`
		Stale bool `json:"stale"`
	} `json:"decision"`
	Reinferred   bool   `json:"reinferred"`
	NewVersion   int    `json:"new_version"`
	ReinferError string `json:"reinfer_error"`
}

type validateReply struct {
	Report struct {
		Total         int
		NonConforming int
	} `json:"report"`
}

type inferReply struct {
	Fingerprint string          `json:"fingerprint"`
	Cached      bool            `json:"cached"`
	Rule        json.RawMessage `json:"rule"`
}

type ingestReply struct {
	ColumnsIngested int    `json:"columns_ingested"`
	Generation      uint64 `json:"generation"`
}

// newClient returns a client holding at most one connection per host.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// send issues one request and decodes its answer.
func send(c *http.Client, r *request) outcome {
	o := outcome{req: r}
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, r.url, bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		o.doneAt = start
		return o
	}
	req.Header.Set("Content-Type", r.ctype)
	resp, err := c.Do(req)
	if err != nil {
		o.err = err
		o.doneAt = time.Now()
		o.latency = o.doneAt.Sub(start)
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.doneAt = time.Now()
	o.latency = o.doneAt.Sub(start)
	o.status = resp.StatusCode
	if err != nil {
		o.err = err
		return o
	}
	if o.status != http.StatusOK {
		o.err = fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(data))
		return o
	}
	switch r.kind {
	case kindCheck:
		err = json.Unmarshal(data, &o.check)
	case kindValidate:
		err = json.Unmarshal(data, &o.report)
	case kindInfer:
		err = json.Unmarshal(data, &o.inferred)
	case kindIngest:
		err = json.Unmarshal(data, &o.ingested)
	}
	o.err = err
	return o
}

// closedLoop runs each client over its own cyclic plan until the
// deadline: a client sends its next request only when the previous one
// has been answered. It returns every outcome, per client in send order.
func closedLoop(plans [][]*request, d time.Duration) ([][]outcome, time.Duration) {
	out := make([][]outcome, len(plans))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := range plans {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for i := 0; time.Now().Before(deadline); i++ {
				out[w] = append(out[w], send(c, plans[w][i%len(plans[w])]))
			}
		}(w)
	}
	wg.Wait()
	return out, time.Since(start)
}

// openLoop sends plan[i] at start + i/rate regardless of how earlier
// requests fared. With split set, one client goroutine sends the clean
// stream checks and the other every request that writes or may write
// (/infer, /ingest, drift-stream checks that alarm and re-infer), so a
// slow write never holds up the clean schedule inside the generator;
// otherwise both share one schedule. When a lane's client is busy, a
// request goes out late, and its latency still counts from its
// scheduled time.
func openLoop(plan []*request, rate float64, split bool) []outcome {
	out := make([]outcome, len(plan))
	lanes := [][]int{nil}
	if split {
		lanes = append(lanes, nil)
	}
	for i, r := range plan {
		lane := 0
		if split && (r.kind == kindInfer || r.kind == kindIngest || r.st.driftFrom != "") {
			lane = 1
		}
		lanes[lane] = append(lanes[lane], i)
	}
	next := make([]atomic.Int64, len(lanes))
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(slots []int, next *atomic.Int64) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(slots) {
					return
				}
				i := slots[k]
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				late := time.Since(due)
				o := send(c, plan[i])
				o.late = late
				o.latency = o.doneAt.Sub(due)
				out[i] = o
			}
		}(lanes[w%len(lanes)], &next[w%len(lanes)])
	}
	wg.Wait()
	return out
}

// paced sends a plan from one client, one request every spacing (or
// right after the previous answer when that comes later), so that its
// latencies sample a stretch of time rather than one instant. A zero
// spacing sends the plan back to back.
func paced(plan []*request, spacing time.Duration) []outcome {
	c := newClient()
	defer c.CloseIdleConnections()
	out := make([]outcome, len(plan))
	start := time.Now()
	for i, r := range plan {
		if wait := time.Until(start.Add(time.Duration(i) * spacing)); wait > 0 {
			time.Sleep(wait)
		}
		out[i] = send(c, r)
	}
	return out
}
