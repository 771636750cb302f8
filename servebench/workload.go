package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"autovalidate/internal/datagen"
	"autovalidate/internal/service"
)

// workload is one traffic mix. The three mixes stress different layers
// so that a change to one layer has a workload that exercises it and one
// that predicts no change (README.md has the full map).
type workload struct {
	name string
	// batchValues is the size of every stream batch; batches the number
	// of distinct clean batches drawn per stream.
	batchValues int
	batches     int
	// encs are the stream-check body encodings, alternated per request.
	encs []encoding
	// validateEvery makes every n-th direct batch request a
	// POST /validate?fingerprint= instead of a stream check (0: never).
	validateEvery int
	// openRate is the open-loop schedule in requests per second: a
	// fixed constant, at most a third of the two-client closed-loop
	// capacity measured when the benchmark was written (README.md).
	openRate float64
	// mixed routes all traffic through the gateway and adds cold /infer
	// calls, periodic /ingest and drifted batches on the drift streams
	// to the open-loop schedule; otherwise clients post straight to the
	// leader.
	mixed bool
}

var workloads = map[string]workload{
	"csv-direct": {
		name: "csv-direct", batchValues: 5000, batches: 6,
		encs: []encoding{encCSV}, validateEvery: 4, openRate: 300,
	},
	"json-direct": {
		name: "json-direct", batchValues: 5000, batches: 6,
		encs: []encoding{encJSON}, validateEvery: 4, openRate: 220,
	},
	"gateway-mixed": {
		name: "gateway-mixed", batchValues: 500, batches: 20,
		encs: []encoding{encCSV, encNDJSON}, openRate: 200, mixed: true,
	},
}

// Open-loop shape of gateway-mixed: one slot in inferCycle is a cold
// /infer, one in mixCycle a drift-stream check and one in ingestCycle
// an /ingest. Every driftEvery-th drift-stream check carries a drifted
// batch.
const (
	inferCycle  = 10
	mixCycle    = 20
	ingestCycle = 100
	driftEvery  = 2
)

// Sizes of the generated inputs.
const (
	trainValues    = 500 // training column of each registered stream
	inferValues    = 200 // cold /infer training column
	ingestRows     = 100 // rows per column of an ingested table
	controlInfers  = 198 // cold /infer calls after the direct workloads' load
	controlIngests = 40  // /ingest calls after the direct workloads' load
	// controlSpacing paces the control-plane calls: 238 calls over 4.8
	// seconds.
	controlSpacing  = 20 * time.Millisecond
	tableBatchValue = 5000
	// tracedIngests are the traced run's tables for index.Clone and
	// IngestColumns.
	tracedIngests = 6
)

// The registered streams: twelve clean streams over machine-generated
// domains (four of them carry a semantic domain the detector proposes:
// date, date, ipv4 and a learned vocabulary), plus two drift streams
// whose drifted batches come from another domain. Each stream's values
// come from one datagen.FreshColumn draw, sliced into training column
// and batches, so no batch re-draws the domain's format parameters.
var (
	cleanDomains = []string{
		"timestamp_us", "guid", "ipv4", "date_iso", "hash_hex", "session_id",
		"date_mdy_text", "locale", "hex_id16", "machine_host", "time_hms", "kb_entity",
	}
	// Each drift stream's drifted batches come from the second domain of
	// its pair. Both pairs are cheap to re-infer, so a re-inference is a
	// bounded cost on the batch tail (README.md has the figures for a
	// costly pair).
	driftDomains = [][2]string{{"date_us_slash", "int_plain"}, {"version", "float_metric"}}
	// inferDomains rotate through the cold /infer columns, so every run
	// infers the same mix of domains. The mix leaves out the costliest
	// domain, ipv4 (11-19 ms per core.Infer), and hash_hex, whose cost
	// ranges 1-15 ms from one column to the next: with them in, the
	// infer percentiles and the gateway-mixed batch p90 moved by more
	// than their bound from seed to seed (README.md has the figures).
	// The infer metrics therefore describe the cheaper domains.
	inferDomains = []string{
		"date_iso", "time_hms", "session_id", "int_plain", "percent",
		"machine_host", "version", "locale", "float_metric",
	}
	ingestDomains = []string{"date_iso", "ipv4", "hash_hex", "machine_host"}
)

type encoding uint8

const (
	encCSV encoding = iota
	encNDJSON
	encJSON
	numEncodings
)

func (e encoding) String() string {
	return [...]string{"csv", "ndjson", "json"}[e]
}

func (e encoding) contentType() string {
	return [...]string{"text/csv", "application/x-ndjson", "application/json"}[e]
}

// stream is one registered stream with its pre-marshalled batches.
type stream struct {
	domain string
	// driftFrom is the domain of the drifted batches ("" for clean
	// streams).
	driftFrom string
	// leaderHome asks for a name the gateway routes to the leader
	// (drift streams need the leader so they can re-infer).
	leaderHome bool
	name       string
	home       *node

	train   []string
	batches [][]string
	// bytes[b] is batch b as byte slices, the form the columnar
	// handlers decode it into.
	bytes [][][]byte
	// checkBody[enc][b] is batch b's stream-check body, validateJSON[b]
	// its JSON /validate body (the columnar bodies double as both).
	checkBody    [numEncodings][][]byte
	validateJSON [][]byte
	// attrBatch is a batch of another domain's values for the traced
	// Rule.Attribute measurement.
	attrBatch []string

	// fingerprint names the stream's training rule in the rule cache.
	fingerprint string
	// domainName is the semantic domain the service detected at
	// registration ("" for none).
	domainName string
}

// inferColumn is an unseen training column for a cold /infer call.
type inferColumn struct {
	values []string
	body   []byte
	// fingerprint is what the service must answer for it.
	fingerprint string
}

// ingestTable is one small table for /ingest.
type ingestTable struct {
	req  service.IngestRequest
	body []byte
}

// inputs is everything generated from the seed before set-up.
type inputs struct {
	streams []*stream
	infers  []*inferColumn
	ingests []*ingestTable
	// tableBatch is the 5000-value timestamp_us batch of the layer
	// table, drawn from the timestamp_us stream.
	tableBatch []string
}

// generate draws every input of a workload from the seed.
func generate(wl workload, seed int64, openSlots int) (*inputs, error) {
	in := &inputs{}
	opt := serveOptions()
	add := func(i int, dom, driftFrom string) error {
		st := &stream{domain: dom, driftFrom: driftFrom, leaderHome: driftFrom != ""}
		n := trainValues + wl.batches*wl.batchValues
		if dom == "timestamp_us" && n < trainValues+tableBatchValue {
			n = trainValues + tableBatchValue
		}
		vals, err := datagen.FreshColumn(dom, n, seed*1009+int64(i))
		if err != nil {
			return err
		}
		st.train = vals[:trainValues]
		for b := 0; b < wl.batches; b++ {
			lo := trainValues + b*wl.batchValues
			st.batches = append(st.batches, vals[lo:lo+wl.batchValues])
		}
		if dom == "timestamp_us" {
			in.tableBatch = vals[trainValues : trainValues+tableBatchValue]
		}
		if driftFrom != "" {
			// As many drifted batches as clean ones, from one draw of
			// the other domain.
			dv, err := datagen.FreshColumn(driftFrom, wl.batches*wl.batchValues, seed*1009+500+int64(i))
			if err != nil {
				return err
			}
			for b := 0; b < wl.batches; b++ {
				st.batches = append(st.batches, dv[b*wl.batchValues:(b+1)*wl.batchValues])
			}
		}
		// The batch Rule.Attribute is timed on in the traced run: ipv4
		// values, or machine_host ones for the ipv4 stream itself.
		attrDomain := "ipv4"
		if dom == "ipv4" {
			attrDomain = "machine_host"
		}
		av, err := datagen.FreshColumn(attrDomain, wl.batchValues, seed*1009+900+int64(i))
		if err != nil {
			return err
		}
		st.attrBatch = av
		for e := encoding(0); e < numEncodings; e++ {
			st.checkBody[e] = make([][]byte, len(st.batches))
		}
		st.fingerprint = service.Fingerprint(st.train, opt)
		for b, batch := range st.batches {
			st.bytes = append(st.bytes, bytesOf(batch))
			for e := encoding(0); e < numEncodings; e++ {
				body, err := encodeBatch(e, batch)
				if err != nil {
					return err
				}
				st.checkBody[e][b] = body
			}
			body, err := json.Marshal(service.ValidateRequest{Fingerprint: st.fingerprint, Values: batch})
			if err != nil {
				return err
			}
			st.validateJSON = append(st.validateJSON, body)
		}
		in.streams = append(in.streams, st)
		return nil
	}
	for i, dom := range cleanDomains {
		if err := add(i, dom, ""); err != nil {
			return nil, err
		}
	}
	for i, d := range driftDomains {
		if err := add(len(cleanDomains)+i, d[0], d[1]); err != nil {
			return nil, err
		}
	}

	nInfer := controlInfers
	nIngest := controlIngests
	if wl.mixed {
		nInfer = openSlots/inferCycle + 1
		nIngest = openSlots/ingestCycle + 1
	}
	nInfer += 12 // traced core.Infer sample
	nIngest += tracedIngests
	for k := 0; k < nInfer; k++ {
		vals, err := datagen.FreshColumn(inferDomains[k%len(inferDomains)], inferValues, seed*7919+50_000+int64(k))
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(service.InferRequest{Values: vals})
		if err != nil {
			return nil, err
		}
		in.infers = append(in.infers, &inferColumn{values: vals, body: body, fingerprint: service.Fingerprint(vals, opt)})
	}
	for k := 0; k < nIngest; k++ {
		t := service.IngestTable{Name: fmt.Sprintf("arrival_%d_%d", seed, k)}
		for c, dom := range ingestDomains {
			vals, err := datagen.FreshColumn(dom, ingestRows, seed*7919+90_000+int64(k*len(ingestDomains)+c))
			if err != nil {
				return nil, err
			}
			t.Columns = append(t.Columns, service.IngestColumn{Name: dom, Values: vals})
		}
		req := service.IngestRequest{Tables: []service.IngestTable{t}}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		in.ingests = append(in.ingests, &ingestTable{req: req, body: body})
	}
	return in, nil
}

// encodeBatch renders a batch as a stream-check body.
func encodeBatch(e encoding, values []string) ([]byte, error) {
	var buf bytes.Buffer
	switch e {
	case encCSV:
		for _, v := range values {
			if strings.ContainsAny(v, ",\"\r\n") {
				buf.WriteByte('"')
				buf.WriteString(strings.ReplaceAll(v, `"`, `""`))
				buf.WriteByte('"')
			} else {
				buf.WriteString(v)
			}
			buf.WriteByte('\n')
		}
		return buf.Bytes(), nil
	case encNDJSON:
		enc := json.NewEncoder(&buf)
		for _, v := range values {
			if err := enc.Encode(v); err != nil {
				return nil, err
			}
		}
		return buf.Bytes(), nil
	default:
		return json.Marshal(service.StreamCheckRequest{Values: values})
	}
}

// bytesOf returns the values as byte slices, the decoded form the
// columnar handlers pass to the monitor.
func bytesOf(values []string) [][]byte {
	out := make([][]byte, len(values))
	for i, v := range values {
		out[i] = []byte(v)
	}
	return out
}
