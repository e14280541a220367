package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeSpec decodes one job spec as handleSubmitJob does: unknown
// fields are an error.
func decodeSpec(in []byte) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(in))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// FuzzJobSpec holds every spec that decodes and validates to the cache
// identity contract: both keys are computable, and after a JSON round
// trip the spec still validates under the same CacheKey. Plain go test
// replays the seed corpus in testdata/fuzz/FuzzJobSpec (a spec per
// registered algorithm, the mode and anytime fields, the eps bounds and
// rejected inputs).
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		spec, err := decodeSpec(in)
		if err != nil || spec.validate() != nil {
			return
		}
		key := spec.CacheKey()
		spec.inflightKey()
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("input %q: valid spec does not encode: %v", in, err)
		}
		back, err := decodeSpec(data)
		if err != nil {
			t.Fatalf("input %q: re-encoded spec %s does not decode: %v", in, data, err)
		}
		if err := back.validate(); err != nil {
			t.Fatalf("input %q: re-encoded spec %s no longer validates: %v", in, data, err)
		}
		if got := back.CacheKey(); got != key {
			t.Fatalf("input %q: cache key %q became %q after a round trip", in, key, got)
		}
	})
}
