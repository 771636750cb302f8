package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// smoke test checks the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func smokeRun(t *testing.T, workload string, trace bool) *runResult {
	t.Helper()
	res, err := run(config{workload: workload, seed: 7, seconds: 1, trace: trace, out: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", workload, res.Correct, res.Attempted, res.Failed, res.failures)
	}
	return res
}

// TestWorkloadsEmitEndToEndMetrics runs every workload briefly and
// checks that each end-to-end metric is emitted, with its unit, as a
// positive number.
func TestWorkloadsEmitEndToEndMetrics(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		res := smokeRun(t, w.Name, false)
		if len(res.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", w.Name, len(res.Metrics), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s missing", w.Name, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("%s: metric %s in %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
			case !(got.Value > 0):
				t.Errorf("%s: metric %s = %v, want > 0", w.Name, m.Name, got.Value)
			}
		}
	}
}

// TestTracedRunEmitsPerLayerMetrics runs the traced replay on the
// workload that crosses every layer and checks each per-layer metric,
// the non-negativity of every self time, the layer table and the
// span file.
func TestTracedRunEmitsPerLayerMetrics(t *testing.T) {
	spec := readSpec(t)
	out := t.TempDir()
	res, err := run(config{workload: "gateway-mixed", seed: 7, seconds: 1, trace: true, out: out})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run failed: %v", res.failures)
	}
	if len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s in %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
	// Self times: a level's median minus the median of the level it
	// encloses can only be negative if the nesting is wrong.
	for _, name := range []string{
		"cluster.proxy_us", "service.http_us", "service.decode_csv_ns_per_value",
		"service.decode_json_ns_per_value", "service.decode_ndjson_ns_per_value",
		"monitor.score_ns_per_value", "cluster.write_proxy_ms",
	} {
		if v := res.Metrics[name].Value; v < 0 {
			t.Errorf("self time %s = %v, want >= 0", name, v)
		}
	}
	data, err := os.ReadFile(filepath.Join(out, "traces", "gateway-mixed-seed7.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	rows := 0
	names := map[string]bool{}
	for _, l := range lines {
		var rec struct {
			Table *tableRow `json:"layer_table"`
			span
		}
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("span file line %q: %v", l, err)
		}
		if rec.Table != nil {
			rows++
			continue
		}
		if rec.End < rec.Start {
			t.Errorf("span %d %s ends before it starts", rec.ID, rec.Name)
		}
		names[rec.Name] = true
	}
	if rows != 6 {
		t.Errorf("layer table has %d rows, want 6", rows)
	}
	for _, level := range []string{"gateway", "loopback", "handler.csv", "handler.json", "handler.ndjson",
		"monitor.check_bytes", "monitor.check_bytes_bare", "monitor.check_strings", "validate.match_batch", "validate.match_strings",
		"service.encode", "journal.append", "core.infer", "index.clone", "index.ingest"} {
		if !names[level] {
			t.Errorf("no %s span written", level)
		}
	}
}

// TestOracleCatchesCorruptedCount sends real stream checks and shows
// that the reference accepts the true answer and catches a response
// whose non-conforming count was altered.
func TestOracleCatchesCorruptedCount(t *testing.T) {
	wl := workloads["csv-direct"]
	in, err := generate(wl, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	top, err := startTopology(t.TempDir(), in.streams)
	if err != nil {
		t.Fatal(err)
	}
	defer top.close()
	b := &bench{wl: wl, in: in, top: top, base: top.leader.url, res: &runResult{result: result{Metrics: map[string]metric{}}}}
	if err := b.prepare(); err != nil {
		t.Fatal(err)
	}
	for _, st := range in.streams[:3] {
		o := paced([]*request{b.batchRequest(st, 0, 0)}, 0)[0]
		b.check(o)
		if b.res.Failed != 0 {
			t.Fatalf("true answer rejected: %v", b.res.failures)
		}
		o.check.Decision.Verdict.NonConforming++
		b.check(o)
		if b.res.Failed != 1 {
			t.Fatalf("%s: corrupted non_conforming count not caught", st.name)
		}
		b.res.Failed = 0
		b.res.failures = nil
	}
}
