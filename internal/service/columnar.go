package service

// Request bodies. Every body a handler decodes is read once into a
// pooled reqBody: one slab holding the raw bytes and one slice of
// [][]byte views that the decoders split it into. Alongside the JSON
// envelope, POST /validate and POST /streams/{name}/check accept a raw
// column: `text/csv` (one value per line, RFC 4180 quoting) or NDJSON
// (`application/x-ndjson`, one JSON string per line). Quoted/escaped
// values are unescaped in place, which only ever shrinks, so a
// million-value batch is decoded without materializing a []string or
// copying any value, and validation runs through the rule's compiled
// program via Rule.ValidateBatch. The JSON envelope's "values" array
// is decoded into the same views (jsonbody.go).
//
// The slab is reused by the next request once released, so nothing that
// outlives the request may alias it: response examples, domain examples,
// attribution samples and re-inference training values are all copied
// out as strings.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"sync"
)

// columnarKind classifies a request Content-Type.
type columnarKind int

const (
	colNone columnarKind = iota
	colCSV
	colNDJSON
)

func columnarKindOf(contentType string) columnarKind {
	mt, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		return colNone
	}
	switch mt {
	case "text/csv":
		return colCSV
	case "application/x-ndjson", "application/ndjson", "application/jsonlines":
		return colNDJSON
	default:
		return colNone
	}
}

const (
	// maxPresize caps how much of a request's claimed Content-Length is
	// allocated before any byte arrives; past it the slab grows only as
	// bytes are actually read, so a forged header cannot make the server
	// allocate the whole body limit up front.
	maxPresize = 1 << 20
	// maxPooledSlab and maxPooledViews bound what release hands back to
	// the pool: one outsized request must not pin its buffers for the
	// life of the process.
	maxPooledSlab  = 4 << 20
	maxPooledViews = 1 << 18
)

// reqBody is a pooled request body: the bytes read and the value views
// decoded from them. Acquire with readBody, return with release.
type reqBody struct {
	slab  []byte
	views [][]byte
}

var bodyPool = sync.Pool{New: func() any { return new(reqBody) }}

// readBody reads r.Body, bounded by limit, into a pooled slab, writing
// the HTTP error itself on failure (413 past the limit, 400 otherwise).
// The caller must release the body once nothing references its bytes.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (*reqBody, bool) {
	b := bodyPool.Get().(*reqBody)
	want := int64(bytes.MinRead)
	if cl := r.ContentLength; cl > 0 {
		want += min(cl, limit, maxPresize)
	}
	if int64(cap(b.slab)) < want {
		b.slab = make([]byte, 0, want)
	}
	src := http.MaxBytesReader(w, r.Body, limit)
	slab := b.slab[:0]
	for {
		if len(slab) == cap(slab) {
			slab = append(slab, 0)[:len(slab)]
		}
		n, err := src.Read(slab[len(slab):cap(slab)])
		slab = slab[:len(slab)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			b.slab = slab
			b.release()
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, r, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
				return nil, false
			}
			writeError(w, r, http.StatusBadRequest, "reading request body: "+err.Error())
			return nil, false
		}
	}
	b.slab = slab
	return b, true
}

// release returns the body to the pool. Views are cleared so the pool
// pins no value copied out of the slab; oversized buffers are dropped.
func (b *reqBody) release() {
	clear(b.views[:cap(b.views)])
	b.views = b.views[:0]
	if cap(b.slab) > maxPooledSlab || cap(b.views) > maxPooledViews {
		return
	}
	bodyPool.Put(b)
}

// presized returns the body's view slice emptied, with room for at
// least n values.
func (b *reqBody) presized(n int) [][]byte {
	if cap(b.views) < n {
		b.views = make([][]byte, 0, n)
	}
	return b.views[:0]
}

// columnar splits a columnar body into values, writing the HTTP error
// itself on failure (mirroring decodeJSON). The values are views into
// the slab and live until release.
func (b *reqBody) columnar(w http.ResponseWriter, r *http.Request, kind columnarKind, header bool) ([][]byte, bool) {
	values := b.presized(bytes.Count(b.slab, []byte{'\n'}) + 1)
	var err error
	switch kind {
	case colCSV:
		values, err = splitCSVColumn(values, b.slab)
	default:
		values, err = splitNDJSONColumn(values, b.slab)
	}
	b.views = values
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return nil, false
	}
	if header && len(values) > 0 {
		values = values[1:]
	}
	if len(values) == 0 {
		writeError(w, r, http.StatusBadRequest, "columnar body contains no values")
		return nil, false
	}
	return values, true
}

// splitCSVColumn splits a single-column CSV body into one value per
// record. Quoted values follow RFC 4180: doubled quotes escape a quote,
// and quoted values may contain newlines. Unescaping rewrites the slab
// in place, so every returned value is a view into it. A comma outside
// quotes means the row has more than one field and is rejected — the
// endpoint takes a column, not a table. Values are appended to dst.
func splitCSVColumn(dst [][]byte, slab []byte) ([][]byte, error) {
	values := dst
	line := 1
	i := 0
	for i < len(slab) {
		if slab[i] == '"' {
			start := i + 1
			w := start
			j := start
			closed := false
			for j < len(slab) {
				c := slab[j]
				if c == '"' {
					if j+1 < len(slab) && slab[j+1] == '"' {
						slab[w] = '"'
						w++
						j += 2
						continue
					}
					closed = true
					j++
					break
				}
				if c == '\n' {
					line++
				}
				slab[w] = c
				w++
				j++
			}
			if !closed {
				return nil, fmt.Errorf("csv line %d: unterminated quoted value", line)
			}
			values = append(values, slab[start:w])
			// Only a record boundary may follow the closing quote.
			if j < len(slab) && slab[j] == '\r' {
				j++
			}
			switch {
			case j >= len(slab):
			case slab[j] == '\n':
				j++
				line++
			case slab[j] == ',':
				return nil, fmt.Errorf("csv line %d: multiple fields (the endpoint takes a single column)", line)
			default:
				return nil, fmt.Errorf("csv line %d: unexpected %q after closing quote", line, slab[j])
			}
			i = j
			continue
		}
		end := i
		for end < len(slab) && slab[end] != '\n' {
			if slab[end] == ',' {
				return nil, fmt.Errorf("csv line %d: multiple fields (the endpoint takes a single column)", line)
			}
			end++
		}
		v := slab[i:end]
		if len(v) > 0 && v[len(v)-1] == '\r' {
			v = v[:len(v)-1]
		}
		values = append(values, v)
		if end < len(slab) {
			end++ // consume '\n'
			line++
		}
		i = end
	}
	return values, nil
}

// splitNDJSONColumn splits an NDJSON body: one value per line, each a
// JSON string (decoded as in the JSON envelope, in place unless invalid
// UTF-8 has to grow) or a bare scalar token (number,
// true/false, null — taken verbatim, covering numeric columns without a
// quoting round-trip). Blank lines are skipped; objects and arrays are
// rejected. Values are appended to dst.
func splitNDJSONColumn(dst [][]byte, slab []byte) ([][]byte, error) {
	values := dst
	line := 0
	i := 0
	for i < len(slab) {
		line++
		end := i
		for end < len(slab) && slab[end] != '\n' {
			end++
		}
		lo, hi := i, end
		i = end
		if i < len(slab) {
			i++ // consume '\n'
		}
		for lo < hi && (slab[lo] == ' ' || slab[lo] == '\t' || slab[lo] == '\r') {
			lo++
		}
		for hi > lo && (slab[hi-1] == ' ' || slab[hi-1] == '\t' || slab[hi-1] == '\r') {
			hi--
		}
		if lo == hi {
			continue
		}
		switch slab[lo] {
		case '"':
			v, end, err := decodeString(slab[:hi], lo)
			if err == nil && end != hi {
				err = errors.New("unexpected data after JSON string")
			}
			if err != nil {
				return nil, fmt.Errorf("ndjson line %d: %w", line, err)
			}
			values = append(values, v)
		case '{', '[':
			return nil, fmt.Errorf("ndjson line %d: values must be JSON strings or scalars, not objects/arrays", line)
		default:
			values = append(values, slab[lo:hi])
		}
	}
	return values, nil
}
