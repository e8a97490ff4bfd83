// Package fabric is the wire layer of the distributed check fabric: the
// serializable form of one slice of a sharded satisfiability search, plus
// the coordinator-side machinery — worker registry with health probes,
// consistent-hash routing for cache affinity, and a dispatcher with
// retries, backoff and hedged requests — that moves those slices between
// processes.
//
// The design rests on one property of the engine underneath: the root
// partition a sharded search splits into is a pure function of (schema,
// formula, options) — see accesscheck.(*Checker).ShardPlan. A Shard
// therefore never carries bindings, tuples or search state over the wire;
// it carries the check itself (schema and formula text plus the option
// set) and the canonical indexes of the partition slices to execute. The
// worker re-derives the identical partition locally and runs exactly the
// assigned slice, with the shipped canonical keys cross-checked against
// the re-derived plan so a coordinator/worker disagreement (version skew,
// diverging defaults) fails loudly instead of silently searching the
// wrong slice.
//
// The package also declares a check's two wire forms once for every role:
// CheckOptions, the options of a check request and of a shard alike, and
// Verdict, the answer a worker's /v1/check response and a ShardResult
// both embed and a coordinator merges.
package fabric

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// WireVersion is the shard wire-format version this package speaks.
// Decoding rejects any other version: a fabric must be upgraded in lock
// step, since the partition derivation itself is part of the contract.
// Version 2 indexes shards in the schema's order (method, binding,
// response); version 1 indexed them in the order of their sorted keys.
const WireVersion = 2

// ShardRef names one slice of the canonical partition: its index in the
// canonical order (the schema's: method, then binding, then response), the
// canonical key at that position (the access key, extended by the response
// fingerprint for per-response shards), and whether it is a whole-access
// lazy-range shard. Key and WholeAccess are redundant with Index given the
// partition is deterministic — that is the point: the worker re-derives the
// plan and verifies them, turning any derivation drift into an error.
type ShardRef struct {
	Index       int    `json:"index"`
	Key         string `json:"key"`
	WholeAccess bool   `json:"whole_access,omitempty"`
}

// CheckOptions is the option set of one check, declared once for every
// role: a check request's "options" (server.CheckOptions is this type) and
// a shard's, which a coordinator ships as the request carried them. All but
// Parallelism select what the check computes. Parallelism caps the check's
// exploration walkers: 0 means the serving worker's configured per-check
// parallelism; positive values below it lower the fan-out for this check;
// values above it are clamped to it (a request cannot grab more of the
// machine than the operator allotted per check).
type CheckOptions struct {
	Engine             string   `json:"engine,omitempty"`
	Grounded           bool     `json:"grounded,omitempty"`
	IdempotentOnly     bool     `json:"idempotent_only,omitempty"`
	AllExact           bool     `json:"all_exact,omitempty"`
	ExactMethods       []string `json:"exact_methods,omitempty"`
	MaxDepth           int      `json:"max_depth,omitempty"`
	MaxPaths           int      `json:"max_paths,omitempty"`
	MaxResponseChoices int      `json:"max_response_choices,omitempty"`
	Parallelism        int      `json:"parallelism,omitempty"`
}

// Shard is the wire form of one unit of distributed work: the full check
// (schema declarations, formula, options) plus the canonical partition
// slices the receiving worker must execute. PlanSize is the total size of
// the partition the sender derived; the worker checks it against its own
// derivation before searching. Budget, when set, is a duration string
// bounding the worker-side solve (the dispatching coordinator derives it
// from the remaining request budget).
type Shard struct {
	Version   int           `json:"version"`
	Relations []string      `json:"relations"`
	Methods   []string      `json:"methods,omitempty"`
	Formula   string        `json:"formula"`
	Options   *CheckOptions `json:"options,omitempty"`
	Budget    string        `json:"budget,omitempty"`
	PlanSize  int           `json:"plan_size"`
	Shards    []ShardRef    `json:"shards"`
}

// Validate checks the structural invariants every shard on the wire must
// satisfy, independent of any schema or plan.
func (s *Shard) Validate() error {
	if s.Version != WireVersion {
		return fmt.Errorf("fabric: shard wire version %d, this build speaks %d", s.Version, WireVersion)
	}
	if s.Formula == "" {
		return fmt.Errorf("fabric: shard missing formula")
	}
	if len(s.Relations) == 0 {
		return fmt.Errorf("fabric: shard missing relations")
	}
	if len(s.Shards) == 0 {
		return fmt.Errorf("fabric: shard carries no partition slices")
	}
	if s.PlanSize <= 0 {
		return fmt.Errorf("fabric: shard plan size %d must be positive", s.PlanSize)
	}
	prev := -1
	for _, ref := range s.Shards {
		if ref.Index < 0 || ref.Index >= s.PlanSize {
			return fmt.Errorf("fabric: shard index %d out of plan range [0,%d)", ref.Index, s.PlanSize)
		}
		if ref.Index <= prev {
			return fmt.Errorf("fabric: shard indexes must be strictly ascending (%d after %d)", ref.Index, prev)
		}
		if ref.Key == "" {
			return fmt.Errorf("fabric: shard index %d missing canonical key", ref.Index)
		}
		prev = ref.Index
	}
	return nil
}

// Encode validates and marshals the shard.
func (s *Shard) Encode() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s)
}

// DecodeShard unmarshals and validates a wire shard, rejecting unknown
// fields, unknown versions and malformed slices before any schema parsing
// happens — a typo'd option between fabric versions must fail loudly, not
// silently drop a restriction.
func DecodeShard(data []byte) (*Shard, error) { return ReadShard(bytes.NewReader(data)) }

// ReadShard is DecodeShard reading the encoding from r, as a worker's POST
// /v1/shard does from its size-capped body: it streams, so the body is
// never buffered twice. A read error, such as the size cap's, is wrapped.
func ReadShard(r io.Reader) (*Shard, error) {
	var s Shard
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("fabric: bad shard encoding: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ViewDigest is a hex SHA-256 of the plan view the shard asserts: its
// PlanSize and, in order, every ShardRef's index, canonical key and
// whole-access flag — every field a worker's plan verification compares. A
// worker binds its cache key to it, so a verdict admitted after verifying
// one view is found again only by a shard asserting that same view.
func (s *Shard) ViewDigest() string {
	buf := binary.AppendVarint(nil, int64(s.PlanSize))
	buf = binary.AppendUvarint(buf, uint64(len(s.Shards)))
	for _, ref := range s.Shards {
		var whole byte
		if ref.WholeAccess {
			whole = 1
		}
		buf = binary.AppendVarint(buf, int64(ref.Index))
		buf = binary.AppendUvarint(buf, uint64(len(ref.Key)))
		buf = append(append(buf, ref.Key...), whole)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// Indexes returns the canonical indexes this shard assigns, in order.
func (s *Shard) Indexes() []int {
	out := make([]int, len(s.Shards))
	for i, ref := range s.Shards {
		out[i] = ref.Index
	}
	return out
}
