package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"autovalidate/internal/monitor"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runResult struct {
	result
	cfg      config
	failures []string
}

func (r *runResult) failedFrac() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func (r *runResult) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// setups is how many times a run sets the system up; setup_s is their
// median.
const setups = 3

// bench is one run's state.
type bench struct {
	cfg  config
	wl   workload
	in   *inputs
	top  *topology
	orc  *oracle
	res  *runResult
	base string // where batch traffic goes: the gateway or the leader
	dir  string // the run's scratch directory
}

func run(cfg config) (*runResult, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want csv-direct, json-direct or gateway-mixed)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	dir, err := filepath.Abs(filepath.Join(cfg.out, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	phase := time.Duration(cfg.seconds) * time.Second / 2
	openSlots := int(math.Round(wl.openRate * phase.Seconds()))
	t0 := time.Now()
	progress := func(step string) {
		fmt.Fprintf(os.Stderr, "servebench: %-28s at %6.2fs\n", step, time.Since(t0).Seconds())
	}
	in, err := generate(wl, cfg.seed, openSlots)
	if err != nil {
		return nil, err
	}
	progress("inputs generated")
	b := &bench{cfg: cfg, wl: wl, in: in, dir: dir, res: &runResult{cfg: cfg, result: result{Metrics: map[string]metric{}}}}

	n := setups
	if cfg.trace {
		n = 1
	}
	var setupTimes []float64
	for i := 0; i < n; i++ {
		if b.top != nil {
			// Drop the previous set-up before the next one starts, so
			// the two never hold memory at the same time.
			b.top.close()
			b.top = nil
		}
		start := time.Now()
		b.top, err = startTopology(filepath.Join(dir, fmt.Sprintf("setup-%d", i)), in.streams)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer b.top.close()
	b.base = b.top.leader.url
	if wl.mixed {
		b.base = b.top.gwURL
	}
	progress("set-up done")
	if err := b.prepare(); err != nil {
		return nil, err
	}
	progress("reference computed")
	// peak_rss_mb covers the load phases: the earlier set-ups and the
	// reference are returned to the OS and the high-water mark restarts.
	resetPeakRSS()

	var watch *catchupWatch
	if cfg.trace {
		watch = startCatchupWatch(b.top)
	}
	ph := b.drive(phase, openSlots, progress)
	if err := b.top.converged(); err != nil {
		b.fail("follower did not converge by the end of the run: %v", err)
	}
	progress("follower converged")
	if watch != nil {
		watch.stop()
	}

	if cfg.trace {
		tr, err := b.traceRun(ph, watch)
		if err != nil {
			return nil, err
		}
		progress("traced replay done")
		if err := tr.writeSpans(filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	} else {
		b.res.set("setup_s", median(setupTimes), "s")
		b.endToEnd(ph)
	}
	b.res.Correct = b.res.Failed == 0
	b.writeRecord()
	return b.res, nil
}

// prepare computes the reference counts of every batch under each
// stream's first rule. It runs after set-up and is not part of setup_s.
func (b *bench) prepare() error {
	b.orc = newOracle(b.top)
	for _, st := range b.in.streams {
		if _, err := b.orc.expected(st, 1, 0); err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) fail(format string, args ...any) {
	b.res.Failed++
	b.res.failures = append(b.res.failures, fmt.Sprintf(format, args...))
}

// rounds is how many times a run alternates its load phases. Each
// metric then samples the whole run rather than one stretch of it, so
// a spell of a slow host (shared hosts slow down by a quarter for ten
// seconds at a time) moves a fifth of its samples, not all of them.
const rounds = 5

// phases holds what the load phases measured. The closed-loop, open-loop
// and control-plane outcomes are those of all rounds, in send order.
type phases struct {
	warm, closed [][]outcome
	// closedRates are the closed-loop values per second of equal time
	// slices of every round.
	closedRates    []float64
	open           []outcome
	control        []outcome
	measuredValues int
	// measured and appends cover the closed- and open-loop phases.
	measured       runtimeDelta
	appends        uint64
	checkedBatches int
}

// drive runs the load: warm-up, then rounds of a closed-loop phase, an
// open-loop phase and, on the direct workloads, a share of the paced
// cold /infer calls; on the direct workloads the paced /ingest calls
// come last. Every outcome is checked.
func (b *bench) drive(phase time.Duration, openSlots int, progress func(string)) *phases {
	ph := &phases{}
	closedPlans := b.closedPlans()
	warm := make([][]*request, len(closedPlans))
	for w, p := range closedPlans {
		warm[w] = p[:min(len(p), 2*len(b.in.streams))]
	}
	ph.warm = make([][]outcome, len(warm))
	for w := range warm {
		ph.warm[w] = paced(warm[w], 0)
	}

	ph.closed = make([][]outcome, len(closedPlans))
	openPlan := b.openPlan(openSlots)
	var infers, ingests []*request
	if !b.wl.mixed {
		infers, ingests = b.controlPlan()
	}
	for r := 0; r < rounds; r++ {
		appends := b.journalAppends()
		before := readRuntime()
		start := time.Now()
		closed, elapsed := closedLoop(closedPlans, phase/rounds)
		ph.open = append(ph.open, openLoop(openPlan[r*len(openPlan)/rounds:(r+1)*len(openPlan)/rounds], b.wl.openRate, b.wl.mixed)...)
		ph.measured = ph.measured.add(readRuntime().since(before))
		ph.appends += b.journalAppends() - appends
		for w := range closed {
			ph.closed[w] = append(ph.closed[w], closed[w]...)
		}
		ph.closedRates = append(ph.closedRates, sliceRates(closed, start, elapsed, windows/rounds)...)
		ph.control = append(ph.control, paced(infers[r*len(infers)/rounds:(r+1)*len(infers)/rounds], controlSpacing)...)
	}
	ph.control = append(ph.control, paced(ingests, controlSpacing)...)
	progress("load phases done")

	for _, seq := range append(append([][]outcome{}, ph.warm...), ph.closed...) {
		for _, o := range seq {
			b.check(o)
		}
	}
	for _, seq := range ph.closed {
		for _, o := range seq {
			if o.err == nil {
				ph.measuredValues += o.req.values()
			}
			if o.req.kind == kindCheck {
				ph.checkedBatches++
			}
		}
	}
	for _, o := range ph.open {
		b.check(o)
		if o.err == nil {
			ph.measuredValues += o.req.values()
		}
		if o.req.kind == kindCheck {
			ph.checkedBatches++
		}
	}
	for _, o := range ph.control {
		b.check(o)
	}
	progress("responses checked")
	var checks []outcome
	for _, seq := range append(append([][]outcome{ph.open}, ph.warm...), ph.closed...) {
		checks = append(checks, seq...)
	}
	b.replay(checks)
	progress("stream checks replayed")
	return ph
}

func (b *bench) journalAppends() uint64 {
	return b.top.leader.jrn.Appended() + b.top.follower.jrn.Appended()
}

func (b *bench) cleanStreams() []*stream { return b.in.streams[:len(cleanDomains)] }
func (b *bench) driftStreams() []*stream { return b.in.streams[len(cleanDomains):] }

// batchRequest is request k of a stream's batch traffic: a stream
// check, or on the direct workloads every validateEvery-th request a
// /validate of the same batch under the stream's cached rule.
func (b *bench) batchRequest(st *stream, batch, k int) *request {
	enc := b.wl.encs[k%len(b.wl.encs)]
	if b.wl.validateEvery > 0 && k%b.wl.validateEvery == b.wl.validateEvery-1 {
		r := &request{kind: kindValidate, ctype: enc.contentType(), st: st, batch: batch}
		if enc == encJSON {
			r.url = b.base + "/validate"
			r.body = st.validateJSON[batch]
		} else {
			r.url = b.base + "/validate?fingerprint=" + st.fingerprint
			r.body = st.checkBody[enc][batch]
		}
		return r
	}
	return &request{
		kind: kindCheck, url: b.base + "/streams/" + st.name + "/check",
		ctype: enc.contentType(), body: st.checkBody[enc][batch], st: st, batch: batch,
	}
}

// closedPlans gives each closed-loop client an equal share of the clean
// streams, cycling through every (stream, batch, endpoint, encoding)
// combination.
func (b *bench) closedPlans() [][]*request {
	plans := make([][]*request, closedClients)
	for w := range plans {
		var mine []*stream
		for i, st := range b.cleanStreams() {
			if i%closedClients == w {
				mine = append(mine, st)
			}
		}
		n := len(mine) * b.wl.batches * max(b.wl.validateEvery, len(b.wl.encs))
		for k := 0; k < n; k++ {
			round := k / len(mine)
			plans[w] = append(plans[w], b.batchRequest(mine[k%len(mine)], round%b.wl.batches, k+round))
		}
	}
	return plans
}

// openPlan lays out the open-loop schedule's requests.
func (b *bench) openPlan(slots int) []*request {
	clean := b.cleanStreams()
	plan := make([]*request, 0, slots)
	var c, d, nInfer, nIngest int
	for i := 0; i < slots; i++ {
		switch {
		case b.wl.mixed && i%ingestCycle == ingestCycle/2:
			t := b.in.ingests[nIngest]
			nIngest++
			plan = append(plan, &request{kind: kindIngest, url: b.base + "/ingest", ctype: "application/json", body: t.body, ingest: t})
		case b.wl.mixed && i%inferCycle == inferCycle/3:
			col := b.in.infers[nInfer]
			nInfer++
			plan = append(plan, &request{kind: kindInfer, url: b.base + "/infer", ctype: "application/json", body: col.body, infer: col})
		case b.wl.mixed && i%mixCycle == 1:
			drift := b.driftStreams()
			st := drift[d%len(drift)]
			round := d / len(drift)
			batch := round % b.wl.batches
			if round%driftEvery == driftEvery-1 {
				batch += b.wl.batches
			}
			plan = append(plan, b.batchRequest(st, batch, round))
			d++
		default:
			round := c / len(clean)
			plan = append(plan, b.batchRequest(clean[c%len(clean)], round%b.wl.batches, c+round))
			c++
		}
	}
	return plan
}

// controlPlan is the direct workloads' control-plane traffic, straight
// to the leader: cold /infer calls and /ingest calls.
func (b *bench) controlPlan() (infers, ingests []*request) {
	for _, col := range b.in.infers[:controlInfers] {
		infers = append(infers, &request{kind: kindInfer, url: b.top.leader.url + "/infer", ctype: "application/json", body: col.body, infer: col})
	}
	for _, t := range b.in.ingests[:controlIngests] {
		ingests = append(ingests, &request{kind: kindIngest, url: b.top.leader.url + "/ingest", ctype: "application/json", body: t.body, ingest: t})
	}
	return infers, ingests
}

// check counts one outcome and compares it with the reference.
func (b *bench) check(o outcome) {
	b.res.Attempted++
	r := o.req
	if o.err != nil {
		b.fail("%s: %v", r.url, o.err)
		return
	}
	switch r.kind {
	case kindCheck:
		v := o.check.Decision.Verdict
		want, err := b.orc.expected(r.st, o.check.Version, r.batch)
		switch {
		case err != nil:
			b.fail("%s batch %d: %v", r.st.name, r.batch, err)
		case v.Total != len(r.st.batches[r.batch]) || v.NonConforming != want:
			b.fail("%s batch %d v%d: total/non_conforming %d/%d, reference %d/%d",
				r.st.name, r.batch, o.check.Version, v.Total, v.NonConforming, len(r.st.batches[r.batch]), want)
		case 2*want >= v.Total && v.Action == monitor.Accept.String():
			// A batch that mostly fails the rule it was checked against
			// (a drifted batch, until re-inference learns the drift)
			// must not be accepted.
			b.fail("%s batch %d v%d: %d of %d values non-conforming but accepted", r.st.name, r.batch, o.check.Version, want, v.Total)
		case o.check.ReinferError != "":
			b.fail("%s batch %d: re-inference failed: %s", r.st.name, r.batch, o.check.ReinferError)
		}
	case kindValidate:
		want, err := b.orc.expected(r.st, 1, r.batch)
		rep := o.report.Report
		if err != nil || rep.Total != len(r.st.batches[r.batch]) || rep.NonConforming != want {
			b.fail("%s /validate batch %d: total/non_conforming %d/%d, reference %d/%d (%v)",
				r.st.name, r.batch, rep.Total, rep.NonConforming, len(r.st.batches[r.batch]), want, err)
		}
	case kindInfer:
		got := o.inferred
		if got.Fingerprint != r.infer.fingerprint || got.Cached || len(got.Rule) == 0 || string(got.Rule) == "null" {
			b.fail("/infer: fingerprint %s cached=%v rule=%d bytes, want fingerprint %s uncached with a rule",
				got.Fingerprint, got.Cached, len(got.Rule), r.infer.fingerprint)
		}
	case kindIngest:
		want := 0
		for _, t := range r.ingest.req.Tables {
			want += len(t.Columns)
		}
		if o.ingested.ColumnsIngested != want || o.ingested.Generation == 0 {
			b.fail("/ingest: %d columns at generation %d, want %d columns", o.ingested.ColumnsIngested, o.ingested.Generation, want)
		}
	}
}

// replay re-runs every stream's checks, in the order the server
// checked them, through an in-process monitor.Engine with the same
// policy, rule versions and staleness, and compares every decision with
// the one the server returned. The server numbers a stream's checks
// (Verdict.Seq) and starts again from 1 when a re-inference installs the
// next rule version, so rule version and number give the order, and
// within a version the numbers must run 1, 2, 3, ... Streams are
// independent, so they replay in parallel.
func (b *bench) replay(checks []outcome) {
	perStream := map[*stream][]outcome{}
	for _, o := range checks {
		if o.req.kind == kindCheck && o.err == nil {
			perStream[o.req.st] = append(perStream[o.req.st], o)
		}
	}
	eng := monitor.NewEngine(monitor.DefaultPolicy())
	reg := b.top.leader.svc.Registry()
	var mu sync.Mutex
	var failures []string
	var wg sync.WaitGroup
	for st, seq := range perStream {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sort.Slice(seq, func(i, j int) bool {
				a, b := seq[i].check, seq[j].check
				if a.Version != b.Version {
					return a.Version < b.Version
				}
				return a.Decision.Verdict.Seq < b.Decision.Verdict.Seq
			})
			var fs []string
			version, next := 0, 1
			for _, o := range seq {
				// Every check the server numbered must be here once.
				if o.check.Version != version {
					version, next = o.check.Version, 1
				}
				if n := o.check.Decision.Verdict.Seq; n != next {
					fs = append(fs, fmt.Sprintf("replay %s v%d: check numbered %d, want %d", st.name, version, n, next))
				}
				next = o.check.Decision.Verdict.Seq + 1
				s, ok := reg.GetVersion(st.name, o.check.Version)
				if !ok {
					fs = append(fs, fmt.Sprintf("replay %s: no version %d", st.name, o.check.Version))
					continue
				}
				s.Stale = o.check.Decision.Stale
				dec, err := eng.CheckBytes(s, st.bytes[o.req.batch])
				if err != nil {
					fs = append(fs, fmt.Sprintf("replay %s: %v", st.name, err))
					continue
				}
				if got := o.check.Decision.Verdict.Action; dec.Verdict.ActionName != got {
					fs = append(fs, fmt.Sprintf("replay %s batch %d seq %d: server decided %s, reference monitor %s",
						st.name, o.req.batch, o.check.Decision.Verdict.Seq, got, dec.Verdict.ActionName))
				}
				if o.check.Reinferred {
					eng.Reset(st.name)
				}
			}
			mu.Lock()
			failures = append(failures, fs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Strings(failures)
	for _, f := range failures {
		b.fail("%s", f)
	}
}

// oracle holds the reference non-conforming counts per stream rule
// version and batch, computed in process with the same rule.
type oracle struct {
	top    *topology
	counts map[oracleKey][]int
}

type oracleKey struct {
	st      *stream
	version int
}

func newOracle(top *topology) *oracle {
	return &oracle{top: top, counts: map[oracleKey][]int{}}
}

// expected returns batch's non-conforming count under the stream's rule
// version, computing all the stream's batches the first time a version
// is asked for.
func (o *oracle) expected(st *stream, version, batch int) (int, error) {
	key := oracleKey{st, version}
	nc, ok := o.counts[key]
	if !ok {
		s, found := o.top.leader.svc.Registry().GetVersion(st.name, version)
		if !found {
			return 0, fmt.Errorf("stream %s has no version %d", st.name, version)
		}
		nc = make([]int, len(st.batches))
		for i, values := range st.batches {
			rep, err := s.Rule.Validate(values)
			if err != nil {
				return 0, err
			}
			nc[i] = rep.NonConforming
		}
		o.counts[key] = nc
	}
	return nc[batch], nil
}

// windows is how many consecutive slices of a phase a rate or tail
// percentile is computed over; the reported value is their median, so
// one stall (a GC cycle, a noisy neighbour) moves one slice, not the
// result.
const windows = 10

// endToEnd computes the end-to-end metrics from the load phases.
func (b *bench) endToEnd(ph *phases) {
	r := b.res
	r.set("batch_values_per_s", median(ph.closedRates), "values/s")
	batch, infer, _ := ph.latencies()
	r.set("batch_p50_ms", quantile(batch, 0.50), "ms")
	r.set("batch_p75_ms", slicedQuantile(batch, 0.75, calmSlices, 0.25), "ms")
	r.set("infer_p50_ms", quantile(infer, 0.50), "ms")
	r.set("infer_p90_ms", windowedQuantile(infer, 0.90), "ms")
	r.set("alloc_bytes_per_value", ph.measured.allocBytes/float64(max(ph.measuredValues, 1)), "B/value")
	r.set("peak_rss_mb", peakRSSMiB(), "MiB")
}

// latencies returns the open-loop batch latencies and the /infer and
// /ingest latencies of the open-loop and control-plane phases, in
// schedule order.
func (ph *phases) latencies() (batch, infer, ingest []float64) {
	for _, o := range append(append([]outcome{}, ph.open...), ph.control...) {
		switch o.req.kind {
		case kindCheck, kindValidate:
			batch = append(batch, ms(o.latency))
		case kindInfer:
			infer = append(infer, ms(o.latency))
		case kindIngest:
			ingest = append(ingest, ms(o.latency))
		}
	}
	return batch, infer, ingest
}

// sliceRates splits one closed-loop phase that ran from start for
// elapsed into n equal time slices and returns each slice's checked
// values per second.
func sliceRates(closed [][]outcome, start time.Time, elapsed time.Duration, n int) []float64 {
	width := elapsed / time.Duration(n)
	rates := make([]float64, n)
	for _, seq := range closed {
		for _, o := range seq {
			if o.err != nil {
				continue
			}
			if w := int(o.doneAt.Sub(start) / width); w >= 0 && w < n {
				rates[w] += float64(o.req.values())
			}
		}
	}
	for w := range rates {
		rates[w] /= width.Seconds()
	}
	return rates
}

// calmSlices is how many consecutive slices of the open-loop schedule
// batch_p75_ms is taken over. The slices of one run lie in five rounds
// spread over half a minute; a shared host's slow spells only ever add
// latency and fall on different slices in every run, so the lower
// quartile of the slices' figures measures the program in the calmer
// stretches of the run, which every run has.
const calmSlices = 20

// windowedQuantile is the median over consecutive slices of xs (in
// schedule order) of each slice's q-quantile.
func windowedQuantile(xs []float64, q float64) float64 {
	return slicedQuantile(xs, q, windows, 0.5)
}

// slicedQuantile splits xs (in schedule order) into consecutive slices,
// as many, up to n, as leave ten samples beyond the q-quantile in each,
// and returns the pick-quantile of the slices' q-quantiles.
func slicedQuantile(xs []float64, q float64, n int, pick float64) float64 {
	n = min(n, int(float64(len(xs))*(1-q)/10))
	if n <= 1 {
		return quantile(xs, q)
	}
	per := make([]float64, n)
	for w := range per {
		per[w] = quantile(xs[w*len(xs)/n:(w+1)*len(xs)/n], q)
	}
	return quantile(per, pick)
}

// writeRecord stores the run's identity, its metrics and its failures
// next to the span files, so results of different runs can be compared.
func (b *bench) writeRecord() {
	rec := map[string]any{
		"identity":        runIdentity(b.cfg, b.wl),
		"result":          b.res.result,
		"ops_failed_frac": b.res.failedFrac(),
		"failures":        b.res.failures,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return
	}
	dir := filepath.Join(b.cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "servebench: result record:", err)
		return
	}
	mode := "e2e"
	if b.cfg.trace {
		mode = "trace"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", b.cfg.workload, b.cfg.seed, mode))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "servebench: result record:", err)
	}
	id, _ := json.Marshal(rec["identity"])
	fmt.Fprintf(os.Stderr, "run identity: %s\nrecord: %s\n", id, path)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs by linear interpolation (0 for an
// empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
