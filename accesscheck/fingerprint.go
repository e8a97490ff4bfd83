package accesscheck

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sort"
)

// FingerprintSchemeVersion names the fingerprint scheme currently in
// force. Bump it whenever Fingerprint or FingerprintTask change what they
// hash or how they frame it: persistent cache tiers stamp their logs with
// the scheme they were minted under and discard — loudly — any log carrying
// another stamp, because serving old entries under new keys (or vice
// versa) would be silent corruption rather than a mere miss.
//
// fp-v2: the stamp is the only provenance a disk tier checks, so it also
// moves when stored verdicts were wrong. Under fp-v1 the tuple key escaped
// the 0x1f separator inside strings but not its escape byte 0x1e, so two
// distinct tuples could share a key and a check whose string constants
// held both bytes could be stored as an exact unsat it is not. Logs
// written under fp-v1 are discarded; keys of strings without those bytes
// did not change.
//
// fp-v3: formulas and sentences render the way the parser reads them:
// staged atoms as "pre R(x)", "post R(x)" and "bind M(x)", boolean
// constants as #t and #f, string constants without escapes, and a
// quantifier under a connective in parentheses. Under fp-v2 the post-stage
// atom over R rendered as "Rpost(x)", exactly like a plain atom over a
// relation named Rpost, so a containment or relevance task over one could
// be answered with the other's cached verdict; a boolean constant rendered
// like a variable named true or false. Every key of a formula with a
// staged or binding atom moved; logs written under fp-v2 are discarded.
//
// fp-v4: every relation and method name of a parsed schema is one formula
// identifier, and chase inclusion dependencies render their positions
// comma-separated, as ParseID reads them. Under fp-v3 ParseSchema took
// any characters in a name, so the relations "R:int" and "S:int" and the
// single relation "R(int); S:int" rendered alike and two schemas could
// share every cache key; an fp-v3 log may hold a verdict under such a
// shared key, so it is discarded. Keys of chase tasks with inclusion
// dependencies moved; no other key did.
const FingerprintSchemeVersion = "fp-v4"

// Fingerprint returns a canonical key identifying what a Check on (sch, f)
// under this checker's configuration computes: the schema's declaration
// text, the formula's rendering, and every option that can change the
// verdict or its exactness (engine, path restrictions, bounds, initial
// instance and universe overrides). Two calls agree on the fingerprint iff
// Check would run the same search, which makes it the cache key of
// accesscheck/cache — identical requests served by accesscheck/server
// collapse onto one entry.
//
// The key is a hex-encoded SHA-256, so it is safe to use in URLs, log
// lines and on-disk layouts; it is not reversible.
//
// WithParallelism is deliberately excluded: it is an execution strategy,
// not part of what is computed. Exhaustive (non-truncated) verdicts are
// identical for every parallelism, truncated results are never cached, and
// any cached witness was verified against the direct semantics — so a
// result computed at one parallelism is a correct answer for the same check
// at any other, and splitting the cache by walker count would only lower
// its hit rate.
//
// WithShards, by contrast, is included (canonicalized: sorted, deduplicated)
// when set: a shard-restricted check computes a partial answer over a
// subset of the partition, which is a genuinely different computation from
// the full check and from every other subset. Without it, a worker caching
// its partial verdict under the full check's key would poison any
// subsequent full check of the same inputs. Coordinators wanting a routing
// key that all shards of one check share should fingerprint a checker
// without the shard option.
func (c *Checker) Fingerprint(sch *Schema, f Formula) string {
	h := newHasher()
	field := h.field
	// The task-kind discriminator leads every fingerprint (see
	// FingerprintTask): no containment/relevance/chase key can collide with
	// a check key in any cache tier.
	field("task", TaskCheck.String())
	if sch != nil {
		field("schema", sch.String())
	}
	if f != nil {
		field("formula", f.String())
	}
	field("engine", c.engine.String())
	o := &c.opts
	field("grounded", boolKey(o.Grounded))
	field("idempotent", boolKey(o.IdempotentOnly))
	field("allExact", boolKey(o.AllExact))
	if len(o.ExactMethods) > 0 {
		names := make([]string, 0, len(o.ExactMethods))
		for n := range o.ExactMethods {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			field("exact", n)
		}
	}
	for _, i := range o.Shards {
		field("shard", fmt.Sprintf("%d", i))
	}
	field("maxDepth", fmt.Sprintf("%d", o.MaxDepth))
	field("maxPaths", fmt.Sprintf("%d", o.MaxPaths))
	field("maxResponseChoices", fmt.Sprintf("%d", o.MaxResponseChoices))
	if o.Initial != nil {
		field("initial", o.Initial.Fingerprint())
	}
	if o.Universe != nil {
		field("universe", o.Universe.Fingerprint())
	}
	return h.sum()
}

// FingerprintTask is Fingerprint's counterpart for the tasks Do runs: a
// canonical key for what Do on this task computes. Every key starts with
// the task kind, as Fingerprint's starts with TaskCheck, so results of
// different kinds can never collide in any cache tier — a containment
// verdict cached under its key can never answer a check of textually
// identical schema/formula inputs, and vice versa.
//
// The check pipeline is the one problem the checker's options configure.
// The task kinds are canonical in their payload alone (their verdicts do
// not read the checker's options), so their keys cover the payload and
// nothing else: two differently-configured checkers agree on the key of
// the same containment task, and their cached results are interchangeable.
func (c *Checker) FingerprintTask(t *Task) (string, error) {
	if err := t.Validate(); err != nil {
		return "", err
	}
	switch t.Kind {
	case TaskContainment:
		ct := t.Containment
		h := newHasher()
		h.field("task", TaskContainment.String())
		h.field("mode", ct.Mode.String())
		switch ct.Mode {
		case ContainUCQ:
			h.field("q1", ct.Q1.String())
			h.field("q2", ct.Q2.String())
		case ContainDatalog:
			h.field("program", ct.Program.String())
			h.field("q2", ct.Q2.String())
			depth := ct.Depth
			if depth == 0 {
				// Canonical: an explicit depth equal to the derived default
				// is the same computation as depth 0.
				depth = ct.Program.DefaultContainmentDepth()
			}
			h.field("depth", fmt.Sprintf("%d", depth))
		case ContainAccess:
			h.field("schema", ct.Schema.String())
			h.field("q1", ct.Q1.String())
			h.field("q2", ct.Q2.String())
			h.field("depth", fmt.Sprintf("%d", ct.Depth))
			if ct.Seed != nil {
				h.field("seed", ct.Seed.Fingerprint())
			}
		}
		return h.sum(), nil
	case TaskRelevance:
		rt := t.Relevance
		h := newHasher()
		h.field("task", TaskRelevance.String())
		h.field("schema", rt.Schema.String())
		h.field("probe", rt.Probe)
		for _, v := range rt.Binding {
			h.field("bind", v.Key())
		}
		h.field("query", rt.Query.String())
		h.field("grounded", boolKey(rt.Grounded))
		h.field("maxDepth", fmt.Sprintf("%d", rt.MaxDepth))
		if rt.Hidden != nil {
			h.field("hidden", rt.Hidden.Fingerprint())
		}
		if rt.Seed != nil {
			h.field("seed", rt.Seed.Fingerprint())
		}
		if rt.Universe != nil {
			h.field("universe", rt.Universe.Fingerprint())
		}
		return h.sum(), nil
	case TaskChase:
		ch := t.Chase
		h := newHasher()
		h.field("task", TaskChase.String())
		rels := make([]string, 0, len(ch.Arities))
		for r := range ch.Arities {
			rels = append(rels, r)
		}
		sort.Strings(rels)
		for _, r := range rels {
			h.field("arity", fmt.Sprintf("%s=%d", r, ch.Arities[r]))
		}
		fds := make([]string, len(ch.FDs))
		for i, d := range ch.FDs {
			fds[i] = d.String()
		}
		sort.Strings(fds)
		for _, d := range fds {
			h.field("fd", d)
		}
		ids := make([]string, len(ch.IDs))
		for i, d := range ch.IDs {
			ids[i] = d.String()
		}
		sort.Strings(ids)
		for _, d := range ids {
			h.field("id", d)
		}
		h.field("sigma", ch.Sigma.String())
		budget := ch.StepBudget
		if budget == 0 {
			budget = 10000 // the chase default, canonicalized like depth above
		}
		h.field("budget", fmt.Sprintf("%d", budget))
		return h.sum(), nil
	default:
		return "", fmt.Errorf("accesscheck: FingerprintTask: unknown task kind %v", t.Kind)
	}
}

// hasher accumulates (name, value) fields into a SHA-256 with unambiguous
// framing.
type hasher struct{ h hash.Hash }

func newHasher() *hasher { return &hasher{h: sha256.New()} }

func (x *hasher) field(name, value string) {
	io.WriteString(x.h, name)
	x.h.Write([]byte{0})
	io.WriteString(x.h, value)
	x.h.Write([]byte{0x1e})
}

func (x *hasher) sum() string { return hex.EncodeToString(x.h.Sum(nil)) }

func boolKey(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
