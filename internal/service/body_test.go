package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"autovalidate/internal/core"
	"autovalidate/internal/journal"
	"autovalidate/internal/monitor"
	"autovalidate/internal/registry"
)

// serve runs one request through the handler in-process and returns
// the status and response body.
func serve(t *testing.T, h http.Handler, method, path, ctype, body string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// escapedEnvelope encodes values as a JSON envelope with every value's
// first byte written as a \u escape, so decoding rewrites the slab in
// place.
func escapedEnvelope(values []string) string {
	var sb strings.Builder
	sb.WriteString(`{"values":[`)
	for i, v := range values {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `"\u%04x%s"`, v[0], v[1:])
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// TestPooledBodySlabNotAliased checks that nothing outliving a request
// aliases its pooled body slab. Batch A, sent as an escaped JSON
// envelope, has pattern misses and checksum failures on a domain
// stream, so it alarms with examples, domain examples and attribution
// samples; two more in a row re-infer the rule. Each time a different
// CSV batch B is then decoded over the reused slab, and A's history
// window, journaled events and re-inferred rule must read back
// unchanged.
// Run it with -race -count=10: the pool hands a slab back only some of
// the time under the race detector.
func TestPooledBodySlabNotAliased(t *testing.T) {
	jrn, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jrn.Close() })
	opt := core.DefaultOptions()
	opt.M = 5
	pol := monitor.DefaultPolicy()
	pol.QuarantineAfter, pol.ReinferAfter = 2, 2
	srv, err := New(Config{Index: testIndex(t).Clone(), Options: &opt, Journal: jrn, Registry: registry.New(), Monitor: &pol})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	train := make([]string, 120)
	for i := range train {
		train[i] = luhnCard(i)
	}
	put, _ := json.Marshal(StreamPutRequest{Train: train})
	if code, body := serve(t, h, "PUT", "/streams/cards", "application/json", string(put)); code != http.StatusOK {
		t.Fatalf("PUT: status %d: %s", code, body)
	}

	a := make([]string, 100)
	for i := range a {
		switch {
		case i%10 == 3:
			a[i] = fmt.Sprintf("oops-%d", i)
		case i%10 == 7:
			a[i] = breakLuhn(luhnCard(500 + i))
		default:
			a[i] = luhnCard(500 + i)
		}
	}
	bodyA := escapedEnvelope(a)
	// B is shorter than A's body, so it is read into A's pooled slab
	// rather than a freshly allocated one, and overwrites A's bytes.
	b := make([]string, 120)
	for i := range b {
		b[i] = luhnCard(9000 + i)
	}
	bodyB := strings.Join(b, "\n") + "\n"

	get := func(path string) []byte {
		t.Helper()
		code, body := serve(t, h, "GET", path, "", "")
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, code, body)
		}
		return bytes.Clone(body)
	}
	window := func() []json.RawMessage {
		var hist struct{ Window []json.RawMessage }
		if err := json.Unmarshal(get("/streams/cards/history"), &hist); err != nil {
			t.Fatal(err)
		}
		return hist.Window
	}
	events := func() []json.RawMessage {
		var evs struct{ Events []json.RawMessage }
		if err := json.Unmarshal(get("/events?stream=cards"), &evs); err != nil {
			t.Fatal(err)
		}
		return evs.Events
	}
	checkA := func() StreamCheckResponse {
		t.Helper()
		code, body := serve(t, h, "POST", "/streams/cards/check", "application/json", bodyA)
		if code != http.StatusOK {
			t.Fatalf("check A: status %d: %s", code, body)
		}
		var resp StreamCheckResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	checkB := func() {
		t.Helper()
		if code, body := serve(t, h, "POST", "/streams/cards/check", "text/csv", bodyB); code != http.StatusOK {
			t.Fatalf("check B: status %d: %s", code, body)
		}
	}
	samePrefix := func(what string, before, after []json.RawMessage) {
		t.Helper()
		if len(after) < len(before) {
			t.Fatalf("%s: %d entries after batch B, %d before", what, len(after), len(before))
		}
		for i := range before {
			if !bytes.Equal(before[i], after[i]) {
				t.Errorf("%s entry %d changed after batch B:\nbefore %s\nafter  %s", what, i, before[i], after[i])
			}
		}
	}

	// Alarm: A's verdict stays in the window and the journal.
	resp := checkA()
	v := resp.Decision.Verdict
	if v.ActionName != "alarm" || len(v.Examples) == 0 || len(v.DomainExamples) == 0 || v.Attribution == nil {
		t.Fatalf("batch A verdict = %+v, want an alarm with examples, domain examples and attribution", v)
	}
	for _, ex := range v.Examples {
		if !strings.HasPrefix(ex, "oops-") {
			t.Errorf("example %q is not one of A's misses", ex)
		}
	}
	win, evs := window(), events()
	checkB()
	samePrefix("history window", win, window())
	samePrefix("events", evs, events())

	// Re-inference: two alarms in a row re-learn the rule from A, and
	// that rule must not alias the slab.
	checkA()
	if resp = checkA(); !resp.Reinferred {
		t.Fatalf("second consecutive batch A did not re-infer: %+v", resp)
	}
	rule, evs := get("/streams/cards"), events()
	checkB()
	if after := get("/streams/cards"); !bytes.Equal(rule, after) {
		t.Errorf("re-inferred rule changed after batch B:\nbefore %s\nafter  %s", rule, after)
	}
	samePrefix("events", evs, events())
}

// TestForgedContentLengthBoundsAllocation: a request that claims a
// 64 MiB body but sends 10 bytes must not make the server allocate the
// claimed size up front, on the columnar, envelope and plain JSON
// decoders alike.
func TestForgedContentLengthBoundsAllocation(t *testing.T) {
	srv := streamServer(t, "")
	h := srv.Handler()
	for _, c := range []struct{ path, ctype string }{
		{"/streams/s/check", "application/json"},
		{"/streams/s/check", "text/csv"},
		{"/validate", "application/json"},
		{"/infer", "application/json"},
	} {
		req := httptest.NewRequest("POST", c.path, strings.NewReader("0123456789"))
		req.Header.Set("Content-Type", c.ctype)
		req.ContentLength = 64 << 20
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
			t.Errorf("%s %s: forged Content-Length allocated %d bytes, want < 2 MiB", c.ctype, c.path, got)
		}
		if rec.Code == http.StatusOK {
			t.Errorf("%s %s: 10-byte body answered 200", c.ctype, c.path)
		}
	}
}
