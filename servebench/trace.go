package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"autovalidate/internal/core"
	"autovalidate/internal/corpus"
	"autovalidate/internal/domain"
	"autovalidate/internal/index"
	"autovalidate/internal/journal"
	"autovalidate/internal/monitor"
	"autovalidate/internal/registry"
	"autovalidate/internal/service"
	"autovalidate/internal/validate"
)

// The traced run replays a fixed sample of the workload's stream
// checks one request at a time, through entry points nested like the
// layers a request crosses:
//
//	gateway → loopback HTTP → Server.Handler().ServeHTTP
//	  → monitor.Engine.CheckBytes / Check
//	    → validate.Rule.ValidateBatch / Validate
//	  → json.Marshal of the response
//
// The domain pass has no public entry point of its own: on streams
// with a semantic domain, CheckBytes also runs on a copy of the
// snapshot without the domain, and the difference is the domain pass.
//
// Every call is one span (name, start, end, parent, request id) kept in
// memory and written out when the run ends. A layer's self time is the
// median of its level minus the median of the level nested inside it,
// taken per replayed request over the replay rounds; the reported value
// is the median over requests. No timing is added inside the program.

// span is one timed call of the traced run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
	rows  []tableRow
}

// record keeps one span for a call that ran from start to end.
func (t *tracer) record(req, parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// timed runs fn as one span and returns the span's id and duration.
func (t *tracer) timed(req, parent int, name string, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.record(req, parent, name, start, end), end.Sub(start)
}

// tableRow is one row of the layer table.
type tableRow struct {
	Layer  string  `json:"layer"`
	Millis float64 `json:"ms_per_batch"`
	Allocs float64 `json:"allocs_per_batch"`
}

func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range t.rows {
		if err := enc.Encode(map[string]any{"layer_table": r}); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spans: %d written to %s\n", len(t.spans), path)
	return nil
}

// sampleReq is one replayed stream check.
type sampleReq struct {
	st    *stream
	batch int
	enc   encoding
	snap  registry.Stream
	strs  []string
	vals  [][]byte
	attr  [][]byte
	// bare is snap without its semantic domain, set only on streams
	// that have one.
	bare *registry.Stream
	// per-level durations over the rounds, by level name
	d map[string][]float64
}

// Replay sample: the first two batches of every clean stream.
const sampleBatches = 2

// rounds of the replay: enough for stable per-request medians at each
// batch size.
func replayRounds(batchValues int) int {
	if batchValues >= 5000 {
		return 5
	}
	return 9
}

// traceRun measures the per-layer metrics. ph is the load the run
// already drove (its counters feed the sampled metrics).
func (b *bench) traceRun(ph *phases, watch *catchupWatch) (*tracer, error) {
	r := b.res
	t := &tracer{t0: time.Now()}
	c := newClient()
	defer c.CloseIdleConnections()
	eng := monitor.NewEngine(monitor.DefaultPolicy())
	// bareEng checks the domain-less snapshots, so that their decisions
	// leave eng's per-stream state as the real snapshots make it.
	bareEng := monitor.NewEngine(monitor.DefaultPolicy())
	reg := b.top.leader.svc.Registry()

	// Counters sampled from the load phases.
	b.sampledMetrics(ph, watch)

	var sample []*sampleReq
	for _, st := range b.cleanStreams() {
		snap, ok := reg.GetVersion(st.name, 1)
		if !ok {
			return nil, fmt.Errorf("stream %s has no rule", st.name)
		}
		snap.Stale = false
		for bi := 0; bi < sampleBatches; bi++ {
			s := &sampleReq{st: st, batch: bi, enc: b.wl.encs[(len(sample))%len(b.wl.encs)],
				snap: snap, strs: st.batches[bi], vals: st.bytes[bi],
				attr: bytesOf(st.attrBatch), d: map[string][]float64{}}
			if snap.Domain.Name != "" {
				bare := snap
				bare.Domain = domain.Detection{}
				s.bare = &bare
			}
			sample = append(sample, s)
		}
	}

	rounds := replayRounds(b.wl.batchValues)
	req := 0
	for round := 0; round < rounds; round++ {
		for _, s := range sample {
			req++
			if err := b.replayOne(t, c, eng, bareEng, s, req); err != nil {
				return nil, err
			}
		}
	}

	// Self times per request, then the median over requests.
	nv := float64(b.wl.batchValues)
	self := func(outer string, inner ...string) float64 {
		var xs []float64
		for _, s := range sample {
			v := median(s.d[outer])
			for _, in := range inner {
				v -= median(s.d[in])
			}
			xs = append(xs, v)
		}
		return median(xs)
	}
	level := func(name string) float64 {
		var xs []float64
		for _, s := range sample {
			if len(s.d[name]) > 0 {
				xs = append(xs, median(s.d[name]))
			}
		}
		return median(xs)
	}
	us := 1e-3
	r.set("cluster.proxy_us", self("gateway", "loopback")*us, "us")
	r.set("service.http_us", self("loopback", "handler.workload")*us, "us")
	r.set("service.decode_csv_ns_per_value", self("handler.csv", "monitor.check_bytes", "service.encode")/nv, "ns/value")
	r.set("service.decode_ndjson_ns_per_value", self("handler.ndjson", "monitor.check_bytes", "service.encode")/nv, "ns/value")
	r.set("service.decode_json_ns_per_value", self("handler.json", "monitor.check_strings", "service.encode")/nv, "ns/value")
	r.set("service.encode_us", level("service.encode")*us, "us")
	r.set("monitor.check_bytes_ns_per_value", level("monitor.check_bytes")/nv, "ns/value")
	r.set("monitor.check_strings_ns_per_value", level("monitor.check_strings")/nv, "ns/value")
	// Score is what CheckBytes does beyond the kernel and the domain
	// pass: the domain-less check minus the kernel on domain streams.
	var score, dom []float64
	for _, s := range sample {
		check := median(s.d["monitor.check_bytes"])
		if s.bare != nil {
			bare := median(s.d["monitor.check_bytes_bare"])
			dom = append(dom, (check-bare)/nv)
			check = bare
		}
		score = append(score, (check-median(s.d["validate.match_batch"]))/nv)
	}
	r.set("monitor.score_ns_per_value", median(score), "ns/value")
	r.set("domain.check_ns_per_value", median(dom), "ns/value")
	r.set("monitor.attribution_us", level("monitor.attribution")*us, "us")
	r.set("validate.match_batch_ns_per_value", level("validate.match_batch")/nv, "ns/value")
	r.set("validate.match_strings_ns_per_value", level("validate.match_strings")/nv, "ns/value")
	r.set("ratio.handler_over_match_csv", level("handler.csv")/level("validate.match_batch"), "ratio")
	r.set("ratio.json_over_csv", level("handler.json")/level("handler.csv"), "ratio")
	r.set("ratio.gateway_over_direct", level("gateway")/level("loopback"), "ratio")

	if err := b.allocPass(c, sample); err != nil {
		return nil, err
	}
	if err := b.layerTable(t, c, eng); err != nil {
		return nil, err
	}
	if err := b.traceOverhead(t, c, sample); err != nil {
		return nil, err
	}
	// Last: the ingests make the follower apply deltas for a while.
	if err := b.controlPlaneLayers(t, c); err != nil {
		return nil, err
	}
	return t, nil
}

// replayOne replays one sampled request through every level.
func (b *bench) replayOne(t *tracer, c *http.Client, eng, bareEng *monitor.Engine, s *sampleReq, req int) error {
	st := s.st
	path := "/streams/" + st.name + "/check"
	add := func(name string, d time.Duration) { s.d[name] = append(s.d[name], float64(d.Nanoseconds())) }

	httpLevel := func(parent int, name, base string) (int, error) {
		r := &request{kind: kindCheck, url: base + path, ctype: s.enc.contentType(), body: st.checkBody[s.enc][s.batch], st: st, batch: s.batch}
		o := send(c, r)
		b.check(o)
		if o.err != nil {
			return 0, fmt.Errorf("traced %s: %w", name, o.err)
		}
		id := t.record(req, parent, name, o.doneAt.Add(-o.latency), o.doneAt)
		add(name, o.latency)
		return id, nil
	}
	gw, err := httpLevel(0, "gateway", b.top.gwURL)
	if err != nil {
		return err
	}
	lb, err := httpLevel(gw, "loopback", st.home.url)
	if err != nil {
		return err
	}

	var hid [numEncodings]int
	for e := encoding(0); e < numEncodings; e++ {
		hreq := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(st.checkBody[e][s.batch]))
		hreq.Header.Set("Content-Type", e.contentType())
		rec := httptest.NewRecorder()
		parent := 0
		if e == s.enc {
			parent = lb
		}
		name := "handler." + e.String()
		var d time.Duration
		hid[e], d = t.timed(req, parent, name, func() { st.home.handler.ServeHTTP(rec, hreq) })
		b.res.Attempted++
		if rec.Code != http.StatusOK {
			b.fail("traced %s %s: status %d: %s", name, st.name, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		add(name, d)
		if e == s.enc {
			add("handler.workload", d)
		}
	}
	// The columnar handlers run CheckBytes, the JSON handler Check.
	checkBytes, checkStrings := hid[s.enc], hid[encJSON]
	if s.enc == encJSON {
		checkBytes = hid[encCSV]
	}

	var dec monitor.Decision
	id, d := t.timed(req, checkBytes, "monitor.check_bytes", func() { dec, _ = eng.CheckBytes(s.snap, s.vals) })
	add("monitor.check_bytes", d)
	rep := validate.AcquireBatchReport()
	_, d = t.timed(req, id, "validate.match_batch", func() { s.snap.Rule.ValidateBatch(s.vals, rep) })
	rep.Release()
	add("validate.match_batch", d)
	if s.bare != nil {
		_, d = t.timed(req, 0, "monitor.check_bytes_bare", func() { bareEng.CheckBytes(*s.bare, s.vals) })
		add("monitor.check_bytes_bare", d)
	}
	id, d = t.timed(req, checkStrings, "monitor.check_strings", func() { eng.Check(s.snap, s.strs) })
	add("monitor.check_strings", d)
	_, d = t.timed(req, id, "validate.match_strings", func() { s.snap.Rule.Validate(s.strs) })
	add("validate.match_strings", d)
	resp := service.StreamCheckResponse{Stream: st.name, Version: s.snap.Version, Decision: dec}
	_, d = t.timed(req, hid[s.enc], "service.encode", func() { json.Marshal(resp) })
	add("service.encode", d)
	_, d = t.timed(req, 0, "monitor.attribution", func() { s.snap.Rule.Attribute(s.attr, validate.MaxAttributionSamples) })
	add("monitor.attribution", d)
	return nil
}

// mallocs counts heap allocations of fn. Background goroutines
// (health checks, replication polls) can only add allocations to a
// reading, so the fewest of five runs is fn's own count.
func mallocs(fn func()) float64 {
	var m0, m1 runtime.MemStats
	least := math.Inf(1)
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		least = math.Min(least, float64(m1.Mallocs-m0.Mallocs))
	}
	return least
}

// allocPass counts allocations per request at the levels whose
// allocations the per-layer metrics report.
func (b *bench) allocPass(c *http.Client, sample []*sampleReq) error {
	var proxy, hcsv, hjson, mstr []float64
	var failed error
	for _, s := range sample {
		st := s.st
		path := "/streams/" + st.name + "/check"
		post := func(base string) func() {
			return func() {
				o := send(c, &request{kind: kindCheck, url: base + path, ctype: s.enc.contentType(), body: st.checkBody[s.enc][s.batch], st: st, batch: s.batch})
				if o.err != nil && failed == nil {
					failed = o.err
				}
			}
		}
		gw := mallocs(post(b.top.gwURL))
		lb := mallocs(post(st.home.url))
		proxy = append(proxy, gw-lb)
		handler := func(e encoding) func() {
			return func() {
				hreq := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(st.checkBody[e][s.batch]))
				hreq.Header.Set("Content-Type", e.contentType())
				st.home.handler.ServeHTTP(httptest.NewRecorder(), hreq)
			}
		}
		// Request and recorder construction is counted separately and
		// subtracted: the metric is the handler's own allocations.
		setup := mallocs(func() {
			hreq := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(st.checkBody[encCSV][s.batch]))
			hreq.Header.Set("Content-Type", encCSV.contentType())
			_ = httptest.NewRecorder()
		})
		hcsv = append(hcsv, mallocs(handler(encCSV))-setup)
		hjson = append(hjson, mallocs(handler(encJSON))-setup)
		mstr = append(mstr, mallocs(func() { s.snap.Rule.Validate(s.strs) }))
	}
	if failed != nil {
		return fmt.Errorf("allocation pass: %w", failed)
	}
	b.res.set("cluster.proxy_allocs", median(proxy), "count")
	b.res.set("service.handler_allocs_csv", median(hcsv), "count")
	b.res.set("service.handler_allocs_json", median(hjson), "count")
	b.res.set("validate.match_strings_allocs", median(mstr), "count")
	return nil
}

// traceOverhead replays the sample's loopback requests sequentially
// with and without span recording, in alternating pairs, and reports
// the median relative difference of a pair.
func (b *bench) traceOverhead(t *tracer, c *http.Client, sample []*sampleReq) error {
	pass := func(traced bool) (time.Duration, error) {
		start := time.Now()
		for i, s := range append(append(sample[:len(sample):len(sample)], sample...), sample...) {
			r := &request{kind: kindCheck, url: s.st.home.url + "/streams/" + s.st.name + "/check",
				ctype: s.enc.contentType(), body: s.st.checkBody[s.enc][s.batch], st: s.st, batch: s.batch}
			o := send(c, r)
			if o.err != nil {
				return 0, o.err
			}
			if traced {
				t.record(-1-i, 0, "overhead.loopback", o.doneAt.Add(-o.latency), o.doneAt)
			}
		}
		return time.Since(start), nil
	}
	var ratios []float64
	for i := 0; i < 8; i++ {
		// Alternate which pass of the pair goes first.
		var on, off time.Duration
		for _, traced := range []bool{i%2 == 0, i%2 != 0} {
			d, err := pass(traced)
			if err != nil {
				return err
			}
			if traced {
				on = d
			} else {
				off = d
			}
		}
		ratios = append(ratios, float64(on)/float64(off))
	}
	b.res.set("loadgen.trace_overhead_frac", median(ratios)-1, "fraction")
	return nil
}

// controlPlaneLayers times the journal, inference, index and write-proxy
// layers on inputs of the workload's shape.
func (b *bench) controlPlaneLayers(t *tracer, c *http.Client) error {
	r := b.res
	top := b.top

	// journal.Journal.Append of an alarm decision with attribution, on
	// a journal of its own (every append is fsync'd).
	st := b.cleanStreams()[0]
	snap, _ := top.leader.svc.Registry().GetVersion(st.name, 1)
	dec, err := monitor.NewEngine(monitor.DefaultPolicy()).CheckBytes(snap, bytesOf(st.attrBatch))
	if err != nil {
		return err
	}
	detail, err := json.Marshal(dec)
	if err != nil {
		return err
	}
	jrn, err := journal.Open(filepath.Join(b.dir, "trace-journal"), journal.Options{})
	if err != nil {
		return err
	}
	var appends []float64
	for i := 0; i < 100; i++ {
		var aerr error
		_, d := t.timed(0, 0, "journal.append", func() {
			_, aerr = jrn.Append(journal.Event{Kind: journal.KindDecision, Stream: st.name, Action: dec.Verdict.ActionName, Detail: detail})
		})
		if aerr != nil {
			jrn.Close()
			return aerr
		}
		appends = append(appends, float64(d.Nanoseconds()))
	}
	if err := jrn.Close(); err != nil {
		return err
	}
	r.set("journal.append_us", median(appends)/1e3, "us")
	r.set("journal.append_p99_us", quantile(appends, 0.99)/1e3, "us")

	// core.Infer over unseen columns, against the served index.
	cols := b.in.infers[len(b.in.infers)-12:]
	var infers []float64
	for _, col := range cols {
		var ierr error
		_, d := t.timed(0, 0, "core.infer", func() { _, ierr = core.Infer(col.values, top.leader.svc.Index(), top.opt) })
		if ierr != nil {
			return fmt.Errorf("traced core.Infer: %w", ierr)
		}
		infers = append(infers, float64(d.Nanoseconds()))
	}
	r.set("core.infer_ms", median(infers)/1e6, "ms")

	// index.Index.Clone and IngestColumns on private clones.
	var clones, ingests []float64
	for _, tbl := range b.in.ingests[len(b.in.ingests)-tracedIngests:] {
		base := top.leader.svc.Index()
		_, d := t.timed(0, 0, "index.clone", func() { base.Clone() })
		clones = append(clones, float64(d.Nanoseconds()))
		next := base.Clone()
		var corpusCols []*corpus.Column
		for _, it := range tbl.req.Tables {
			for _, col := range it.Columns {
				corpusCols = append(corpusCols, corpus.NewColumn(it.Name, col.Name, col.Values))
			}
		}
		var ierr error
		_, d = t.timed(0, 0, "index.ingest", func() { _, ierr = next.IngestColumns(corpusCols, index.BuildOptions{}) })
		if ierr != nil {
			return ierr
		}
		ingests = append(ingests, float64(d.Nanoseconds()))
	}
	r.set("index.clone_ms", median(clones)/1e6, "ms")
	r.set("index.ingest_ms", median(ingests)/1e6, "ms")

	// The follower's write-proxy hop: the same write sent through the
	// follower and straight to the leader, in back-to-back pairs. An
	// /ingest varies by milliseconds with fsync, far more than the hop
	// costs, so the pairs use a write the leader refuses without
	// touching disk: DELETE of a stream that does not exist (404 on
	// both paths).
	var proxyCost []float64
	for i := 0; i < 20; i++ {
		var lat [2]float64
		// Alternate which path of the pair goes first.
		for k := 0; k < 2; k++ {
			j := (k + i) % 2
			base := []string{top.follower.url, top.leader.url}[j]
			req, err := http.NewRequest(http.MethodDelete, base+"/streams/no-such-stream", nil)
			if err != nil {
				return err
			}
			start := time.Now()
			resp, err := c.Do(req)
			if err != nil {
				return fmt.Errorf("traced write proxy via %s: %w", base, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			end := time.Now()
			b.res.Attempted++
			if resp.StatusCode != http.StatusNotFound {
				b.fail("traced write proxy via %s: status %d, want 404", base, resp.StatusCode)
			}
			t.record(0, 0, []string{"write.follower", "write.leader"}[j], start, end)
			lat[j] = ms(end.Sub(start))
		}
		proxyCost = append(proxyCost, lat[0]-lat[1])
	}
	r.set("cluster.write_proxy_ms", median(proxyCost), "ms")
	return nil
}

// sampledMetrics reads the counters of the load phases: monitor
// decisions, journal appends, cache hits, GC, generator lateness,
// gateway failovers and follower catch-up.
func (b *bench) sampledMetrics(ph *phases, watch *catchupWatch) {
	r := b.res
	var clean, alarmed int
	count := func(o outcome) {
		if o.err != nil || o.req.kind != kindCheck || o.req.st.driftFrom != "" {
			return
		}
		clean++
		if o.check.Decision.Verdict.Action != monitor.Accept.String() {
			alarmed++
		}
	}
	var lateness, lags []float64
	for _, seq := range ph.closed {
		for _, o := range seq {
			count(o)
		}
	}
	ingests := append([]outcome{}, ph.control...)
	for _, o := range ph.open {
		count(o)
		lateness = append(lateness, ms(o.late))
		ingests = append(ingests, o)
	}
	for _, o := range ingests {
		if o.req.kind == kindIngest && o.err == nil {
			if lag, ok := watch.lag(o.ingested.Generation, o.doneAt); ok {
				lags = append(lags, ms(lag))
			}
		}
	}
	r.set("monitor.clean_alarm_frac", float64(alarmed)/float64(max(clean, 1)), "fraction")
	r.set("journal.appends_per_batch", float64(ph.appends)/float64(max(ph.checkedBatches, 1)), "count")
	r.set("runtime.gc_cpu_frac", ph.measured.gcCPU/ph.measured.totalCPU, "fraction")
	r.set("runtime.gc_cycles_per_s", ph.measured.gcCycles/ph.measured.elapsed.Seconds(), "1/s")
	r.set("loadgen.late_p99_ms", quantile(lateness, 0.99), "ms")
	batch, _, ingest := ph.latencies()
	r.set("loadgen.batch_p90_ms", windowedQuantile(batch, 0.90), "ms")
	r.set("loadgen.batch_p99_ms", windowedQuantile(batch, 0.99), "ms")
	r.set("loadgen.ingest_p50_ms", quantile(ingest, 0.50), "ms")
	r.set("cluster.catchup_ms", median(lags), "ms")

	var hits, misses float64
	for _, n := range []*node{b.top.leader, b.top.follower} {
		hits += scrape(b.top.fixture, n.url+"/metrics", "autovalidate_cache_hits_total")
		misses += scrape(b.top.fixture, n.url+"/metrics", "autovalidate_cache_misses_total")
	}
	r.set("service.rule_cache_hit_frac", hits/max(hits+misses, 1), "fraction")
	r.set("cluster.failovers", scrape(b.top.fixture, b.top.gwURL+"/gateway/metrics", "autovalidate_gateway_failovers_total"), "count")

	dfa, rules := 0, 0
	for _, st := range b.in.streams {
		if s, ok := b.top.leader.svc.Registry().GetVersion(st.name, 1); ok {
			rules++
			if s.Rule.Program().Mode() == "dfa" {
				dfa++
			}
		}
	}
	r.set("pattern.dfa_frac", float64(dfa)/float64(max(rules, 1)), "fraction")
}

// scrape sums every sample of a Prometheus metric family.
func scrape(c *http.Client, u, family string) float64 {
	resp, err := c.Get(u)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0
	}
	sum := 0.0
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, family) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(family):]
		if rest != "" && rest[0] != ' ' && rest[0] != '{' {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// layerTable reproduces the ROADMAP's layer table for one 5000-value
// timestamp_us batch and prints it.
func (b *bench) layerTable(t *tracer, c *http.Client, eng *monitor.Engine) error {
	st := b.cleanStreams()[0]
	snap, _ := b.top.leader.svc.Registry().GetVersion(st.name, 1)
	snap.Stale = false
	strs := b.in.tableBatch
	vals := bytesOf(strs)
	path := "/streams/" + st.name + "/check"
	csvBody, err := encodeBatch(encCSV, strs)
	if err != nil {
		return err
	}
	jsonBody, err := encodeBatch(encJSON, strs)
	if err != nil {
		return err
	}
	var failed error
	handler := func(e encoding, body []byte) func() {
		return func() {
			hreq := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			hreq.Header.Set("Content-Type", e.contentType())
			rec := httptest.NewRecorder()
			st.home.handler.ServeHTTP(rec, hreq)
			if rec.Code != http.StatusOK && failed == nil {
				failed = fmt.Errorf("layer table handler: status %d", rec.Code)
			}
		}
	}
	loopback := func(base string) func() {
		return func() {
			resp, err := c.Post(base+path, "text/csv", bytes.NewReader(csvBody))
			if err != nil {
				if failed == nil {
					failed = err
				}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && failed == nil {
				failed = fmt.Errorf("layer table %s: status %d", base, resp.StatusCode)
			}
		}
	}
	rep := validate.AcquireBatchReport()
	defer rep.Release()
	rows := []struct {
		name string
		fn   func()
	}{
		{"Rule.ValidateBatch (DFA kernel)", func() { snap.Rule.ValidateBatch(vals, rep) }},
		{"monitor.Check ([]string)", func() { eng.Check(snap, strs) }},
		{"handler, text/csv body (in-process)", handler(encCSV, csvBody)},
		{"handler, JSON body (in-process)", handler(encJSON, jsonBody)},
		{"loopback HTTP, CSV, direct to member", loopback(st.home.url)},
		{"loopback HTTP, CSV, via gateway", loopback(b.top.gwURL)},
	}
	fmt.Fprintf(os.Stderr, "layer table (%s, %d values)%s time/batch   allocs\n", st.domain, len(strs), strings.Repeat(" ", 6))
	for _, row := range rows {
		var ds []float64
		for i := 0; i < 11; i++ {
			_, d := t.timed(0, 0, "table."+row.name, row.fn)
			ds = append(ds, float64(d.Nanoseconds()))
		}
		tr := tableRow{Layer: row.name, Millis: median(ds) / 1e6, Allocs: mallocs(row.fn)}
		t.rows = append(t.rows, tr)
		fmt.Fprintf(os.Stderr, "  %-40s %8.3f ms %8.0f\n", tr.Layer, tr.Millis, tr.Allocs)
	}
	return failed
}
