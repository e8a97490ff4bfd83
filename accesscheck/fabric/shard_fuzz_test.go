package fabric

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeShard: DecodeShard is the decoder a worker's POST /v1/shard
// runs on its size-capped body (ReadShard: strict JSON decoding, then
// Validate), and a shard that passes reaches the worker's cache key
// (through ViewDigest) before any plan verification. Whatever the input, decoding must not panic, and a
// shard it accepts must re-encode and decode to the same shard — the same
// wire bytes again and the same plan view and view digest. Seeds live in
// testdata/fuzz/FuzzDecodeShard.
func FuzzDecodeShard(f *testing.F) {
	if data, err := sampleShard().Encode(); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeShard(data)
		if err != nil {
			return
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("accepted shard does not re-encode: %v", err)
		}
		again, err := DecodeShard(enc)
		if err != nil {
			t.Fatalf("re-encoded shard refused: %v\n%s", err, enc)
		}
		if reenc, err := again.Encode(); err != nil || !bytes.Equal(reenc, enc) {
			t.Fatalf("round trip changed the shard (%v):\n%s\n%s", err, enc, reenc)
		}
		if again.PlanSize != s.PlanSize || !reflect.DeepEqual(again.Shards, s.Shards) {
			t.Fatalf("round trip changed the plan view: %d %+v, then %d %+v", s.PlanSize, s.Shards, again.PlanSize, again.Shards)
		}
		if again.ViewDigest() != s.ViewDigest() {
			t.Fatalf("round trip changed the view digest of %s", enc)
		}
	})
}
