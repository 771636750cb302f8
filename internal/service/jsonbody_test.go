package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
)

// decodeOracle is the reference decoder for request envelopes:
// encoding/json's streaming Decode, followed by the check that nothing
// but whitespace follows the top-level value.
func decodeOracle(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data")
	}
	return nil
}

// checkEnvelope decodes data with decodeEnvelope and with the oracle,
// into both request types that carry a values envelope, and fails on
// any difference in the accept/reject outcome or the decoded fields.
func checkEnvelope(t *testing.T, data []byte) {
	t.Helper()
	var wantS StreamCheckRequest
	errS := decodeOracle(data, &wantS)
	gotS, err := decodeEnvelope(bytes.Clone(data), nil, new(struct{}))
	compareValues(t, "StreamCheckRequest", data, wantS.Values, errS, gotS, err)

	var wantV, gotV ValidateRequest
	errV := decodeOracle(data, &wantV)
	vals, err := decodeEnvelope(bytes.Clone(data), nil, &gotV)
	compareValues(t, "ValidateRequest", data, wantV.Values, errV, vals, err)
	if errV == nil && err == nil {
		wantV.Values = nil
		if !reflect.DeepEqual(gotV, wantV) {
			t.Errorf("ValidateRequest %q: other fields %+v, encoding/json %+v", data, gotV, wantV)
		}
	}
}

func compareValues(t *testing.T, typ string, data []byte, want []string, wantErr error, got [][]byte, err error) {
	t.Helper()
	if (wantErr == nil) != (err == nil) {
		t.Errorf("%s %q: error %v, encoding/json error %v", typ, data, err, wantErr)
		return
	}
	if err != nil {
		return
	}
	if len(got) != len(want) {
		t.Errorf("%s %q: %d values, encoding/json %d (%q)", typ, data, len(got), len(want), want)
		return
	}
	for i := range want {
		if !bytes.Equal(got[i], []byte(want[i])) {
			t.Errorf("%s %q: value %d = %q, encoding/json %q", typ, data, i, got[i], want[i])
		}
	}
}

// FuzzJSONValues holds the in-place envelope decoder to encoding/json:
// the same inputs accepted and rejected, byte-identical values, and the
// same other fields. The committed seeds under
// testdata/fuzz/FuzzJSONValues, named for the case they pin, cover
// case-insensitive and escaped member names, repeated "values" members
// with null elements and resets, null, non-string elements, escapes,
// invalid UTF-8 and lone surrogates, trailing data, malformed syntax,
// and other members of every type.
func FuzzJSONValues(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEnvelope(t, data)
	})
}

// TestDecodeEnvelopeReusesViews decodes into a views slice left over
// from a longer earlier body, as a pooled request body does: stale
// entries must not leak into the result, even where a null element
// would read the earlier array's value back.
func TestDecodeEnvelopeReusesViews(t *testing.T) {
	first, err := decodeEnvelope([]byte(`{"values":["a","b","c"]}`), nil, new(struct{}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeEnvelope([]byte(`{"values":["x",null]}`), first, new(struct{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[0]) != "x" || len(got[1]) != 0 {
		t.Errorf("decode over reused views = %q, want [x \"\"]", got)
	}
}
