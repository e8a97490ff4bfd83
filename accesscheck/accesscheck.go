// Package accesscheck is the public entry point of the repository: one
// context-aware facade over the schema → formula → solver pipeline of
// Benedikt–Bourhis–Ley, "Querying Schemas With Access Restrictions".
//
// The intended flow is
//
//	sch, err := accesscheck.ParseSchema(relDecls, methodDecls)
//	f, err := accesscheck.ParseFormula(src)
//	chk, err := accesscheck.NewChecker(accesscheck.WithGrounded())
//	res, err := chk.Check(ctx, sch, f)
//
// Check classifies the formula into its Table 1 fragment, dispatches the
// matching decision procedure (or the bounded semi-decision outside the
// decidable fragments), and returns a structured Result: verdict, witness
// access path, search statistics and wall time. The context is honoured
// throughout the search loops, so a deadline or cancellation stops the
// solver promptly — a prerequisite for serving checks under a response-time
// budget.
//
// Everything under internal/ is an implementation detail; the check server
// (accesscheck/server), acclcheck and the examples run their checks through
// this package.
package accesscheck

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"accltl/internal/access"
	"accltl/internal/accltl"
	"accltl/internal/autom"
	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/lts"
	"accltl/internal/schema"
)

// Core domain types, re-exported so consumers never import internal/
// packages for the main pipeline.
type (
	// Formula is an AccLTL formula (build with the combinators below or
	// ParseFormula).
	Formula = accltl.Formula
	// Sentence is an embedded first-order sentence.
	Sentence = fo.Formula
	// Info is the fragment-relevant feature vector of a formula.
	Info = accltl.Info
	// Fragment names a sublanguage of Table 1.
	Fragment = accltl.Fragment
	// Schema is a relational schema with access methods.
	Schema = schema.Schema
	// Relation is a relation of a schema.
	Relation = schema.Relation
	// AccessMethod is an access method of a schema.
	AccessMethod = schema.AccessMethod
	// Path is an access path (a sequence of accesses with responses).
	Path = access.Path
	// Instance is a set of facts over a schema.
	Instance = instance.Instance
	// ShardID identifies one root shard of the canonical search partition
	// (see Checker.ShardPlan and WithShards).
	ShardID = lts.ShardID
)

// The Table 1 fragments.
const (
	FragFullNeq    = accltl.FragFullNeq
	FragFull       = accltl.FragFull
	FragPlus       = accltl.FragPlus
	FragZeroAcc    = accltl.FragZeroAcc
	FragZeroAccNeq = accltl.FragZeroAccNeq
	FragXZeroAcc   = accltl.FragXZeroAcc
)

// Formula combinators (the textual front-end ParseFormula covers the same
// language; these exist for programmatic construction).

// Atom embeds a first-order sentence as an AccLTL atom.
func Atom(s Sentence) Formula { return accltl.Atom{Sentence: s} }

// Not negates a formula.
func Not(f Formula) Formula { return accltl.Not{F: f} }

// And is flattened n-ary conjunction (true when empty).
func And(fs ...Formula) Formula { return accltl.Conj(fs...) }

// Or is flattened n-ary disjunction (false when empty).
func Or(fs ...Formula) Formula { return accltl.Disj(fs...) }

// Next is the temporal X operator.
func Next(f Formula) Formula { return accltl.Next{F: f} }

// Until is the temporal U operator.
func Until(l, r Formula) Formula { return accltl.Until{L: l, R: r} }

// Eventually is the derived F operator.
func Eventually(f Formula) Formula { return accltl.F(f) }

// Always is the derived G operator.
func Always(f Formula) Formula { return accltl.G(f) }

// Classify computes the fragment-relevant features of a formula; use
// Info.Fragment for the smallest Table 1 fragment containing it.
func Classify(f Formula) Info { return accltl.Classify(f) }

// Engine selects a decision procedure. The zero value EngineAuto dispatches
// on the formula's fragment, which is what almost every caller wants; the
// explicit engines exist for cross-checking solvers against each other
// (Figure 2) and for forcing the bounded semi-decision.
type Engine int

const (
	// EngineAuto picks the engine from the fragment classification.
	EngineAuto Engine = iota
	// EngineX is the AccLTL(X) solver (Theorem 4.14).
	EngineX
	// EngineZeroAcc is the 0-Acc solver (Theorems 4.12 / 5.1).
	EngineZeroAcc
	// EnginePlus is the direct AccLTL+ solver (Theorem 4.2 family).
	EnginePlus
	// EngineBounded is the unrestricted bounded semi-decision.
	EngineBounded
	// EngineAutomaton compiles to an A-automaton (Lemma 4.5) and decides
	// language emptiness.
	EngineAutomaton
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineX:
		return "x"
	case EngineZeroAcc:
		return "0-acc"
	case EnginePlus:
		return "plus"
	case EngineBounded:
		return "bounded"
	case EngineAutomaton:
		return "automaton"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Checker is a reusable, immutable-after-construction configuration of the
// decision pipeline. A zero-option checker runs the fragment-dispatched
// search with formula-derived bounds.
type Checker struct {
	engine Engine
	// opts is the configuration every search of the checker runs under;
	// solveOptions adds each check's context and schema.
	opts accltl.SolveOptions
	// anytimeChunk bounds how many not-yet-completed shards one
	// CheckAnytime round attempts (0 = all remaining); see WithAnytimeChunk.
	anytimeChunk int
}

// Option configures a Checker; invalid settings surface as errors from
// NewChecker rather than misbehaving searches.
type Option func(*Checker) error

// NewChecker builds a Checker from functional options.
func NewChecker(opts ...Option) (*Checker, error) {
	c := &Checker{}
	for _, o := range opts {
		if o == nil {
			return nil, fmt.Errorf("accesscheck: nil Option")
		}
		if err := o(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// WithGrounded restricts the search to grounded access paths: every binding
// value must occur in the initial instance or an earlier response.
func WithGrounded() Option {
	return func(c *Checker) error { c.opts.Grounded = true; return nil }
}

// WithIdempotentOnly restricts the search to idempotent paths (repeating an
// access yields the same response).
func WithIdempotentOnly() Option {
	return func(c *Checker) error { c.opts.IdempotentOnly = true; return nil }
}

// WithExactMethods restricts the named methods to exact responses (all
// matching tuples of the hidden instance).
func WithExactMethods(names ...string) Option {
	return func(c *Checker) error {
		if len(names) == 0 {
			return fmt.Errorf("accesscheck: WithExactMethods needs at least one method name")
		}
		if c.opts.ExactMethods == nil {
			c.opts.ExactMethods = make(map[string]bool, len(names))
		}
		for _, n := range names {
			if n == "" {
				return fmt.Errorf("accesscheck: WithExactMethods: empty method name")
			}
			c.opts.ExactMethods[n] = true
		}
		return nil
	}
}

// WithAllExact restricts every method to exact responses.
func WithAllExact() Option {
	return func(c *Checker) error { c.opts.AllExact = true; return nil }
}

// WithMaxDepth bounds witness path length; 0 (the default) derives a bound
// from the formula.
func WithMaxDepth(n int) Option {
	return func(c *Checker) error {
		if n < 0 {
			return fmt.Errorf("accesscheck: WithMaxDepth(%d): depth must be non-negative", n)
		}
		c.opts.MaxDepth = n
		return nil
	}
}

// WithMaxPaths aborts the search after visiting this many path prefixes;
// 0 keeps the engine default.
func WithMaxPaths(n int) Option {
	return func(c *Checker) error {
		if n < 0 {
			return fmt.Errorf("accesscheck: WithMaxPaths(%d): cap must be non-negative", n)
		}
		c.opts.MaxPaths = n
		return nil
	}
}

// WithMaxResponseChoices caps the matching tuples considered per subset
// response (fan-out per access is 2^n); 0 keeps the engine default.
func WithMaxResponseChoices(n int) Option {
	return func(c *Checker) error {
		if n < 0 {
			return fmt.Errorf("accesscheck: WithMaxResponseChoices(%d): cap must be non-negative", n)
		}
		c.opts.MaxResponseChoices = n
		return nil
	}
}

// WithParallelism sets the number of concurrent exploration walkers the
// search may use. The search is always sharded over the root branching and
// walked in the canonical shard order; n = 1 (the default) walks the shards
// one after another on the calling goroutine; n = 0 selects
// runtime.GOMAXPROCS(0); n > 1 runs one mutate-and-undo walker per
// goroutine, with a single shared path budget (WithMaxPaths stays a global
// cap with exact semantics) and early cancellation as soon as any walker
// finds a witness.
//
// Verdicts of searches that run to exhaustion — Result.Truncated false —
// are identical for every parallelism, which is why the result cache treats
// parallelism as execution detail rather than identity (see Fingerprint).
// See Result for what may legitimately vary.
func WithParallelism(n int) Option {
	return func(c *Checker) error {
		if n < 0 {
			return fmt.Errorf("accesscheck: WithParallelism(%d): walker count must be non-negative", n)
		}
		if n == 0 {
			n = runtime.GOMAXPROCS(0)
		}
		c.opts.Parallelism = n
		return nil
	}
}

// WithShards restricts the search to the listed root shards of the
// canonical partition ShardPlan enumerates. Indexes are canonical positions
// in the schema's shard order (method, then binding, then response);
// duplicates collapse, and an index outside the
// partition surfaces as an error from Check. A shard-restricted check is a
// partial check: a satisfiable verdict is exact, an unsatisfiable verdict
// covers only the selected shards and must be merged across a full cover of
// the partition before it says anything about the whole search space — the
// contract the distributed check fabric's workers execute under. Unlike
// WithParallelism, the subset is part of what is computed, so it is folded
// into Fingerprint.
func WithShards(indexes ...int) Option {
	return func(c *Checker) error {
		if len(indexes) == 0 {
			return fmt.Errorf("accesscheck: WithShards needs at least one shard index")
		}
		for _, i := range indexes {
			if i < 0 {
				return fmt.Errorf("accesscheck: WithShards(%d): shard index must be non-negative", i)
			}
		}
		// Stored canonical, sorted and deduplicated: the form Fingerprint
		// hashes and Check and CheckAnytime count.
		sel := slices.Clone(indexes)
		slices.Sort(sel)
		c.opts.Shards = slices.Compact(sel)
		return nil
	}
}

// WithAnytimeChunk bounds how many not-yet-completed root shards a single
// CheckAnytime round attempts: with n > 0 each round solves at most n
// remaining shards and returns a resumable coverage-tagged partial until
// the plan is covered. 0 (the default) lets every round attempt all
// remaining shards, so rounds end only when the budget does. The knob
// exists to make resume behaviour deterministic — tests slice a check into
// an exact number of rounds with it — and to let callers trade round
// latency against convergence granularity. It does not affect what is
// computed, only how it is sliced, so it is not part of Fingerprint.
func WithAnytimeChunk(n int) Option {
	return func(c *Checker) error {
		if n < 0 {
			return fmt.Errorf("accesscheck: WithAnytimeChunk(%d): chunk must be non-negative", n)
		}
		c.anytimeChunk = n
		return nil
	}
}

// WithInitialInstance sets the initially known instance I0.
func WithInitialInstance(i *Instance) Option {
	return func(c *Checker) error {
		if i == nil {
			return fmt.Errorf("accesscheck: WithInitialInstance(nil); omit the option for an empty I0")
		}
		c.opts.Initial = i
		return nil
	}
}

// WithUniverse overrides the hidden-instance universe the search draws
// responses from (the default is assembled from the formula).
func WithUniverse(u *Instance) Option {
	return func(c *Checker) error {
		if u == nil {
			return fmt.Errorf("accesscheck: WithUniverse(nil); omit the option for the formula-derived universe")
		}
		c.opts.Universe = u
		return nil
	}
}

// WithEngine forces a specific decision procedure instead of dispatching on
// the fragment.
func WithEngine(e Engine) Option {
	return func(c *Checker) error {
		if e < EngineAuto || e > EngineAutomaton {
			return fmt.Errorf("accesscheck: WithEngine(%d): unknown engine", int(e))
		}
		c.engine = e
		return nil
	}
}

// WithExactSpec parses the CLI-style exact-response spec: "" restricts
// nothing, "*" makes every method exact, anything else is a comma-separated
// method list.
func WithExactSpec(spec string) Option {
	return func(c *Checker) error {
		all, names, err := parseExactSpec(spec)
		if err != nil {
			return err
		}
		if all {
			c.opts.AllExact = true
			return nil
		}
		if len(names) == 0 {
			return nil
		}
		return WithExactMethods(names...)(c)
	}
}

// Result is the structured outcome of a Check call.
type Result struct {
	// Info is the formula's feature vector; Fragment/InFragment locate it
	// in Table 1 (InFragment is false for formulas outside every fragment,
	// e.g. with past operators — those run through the bounded engine).
	Info       Info
	Fragment   Fragment
	InFragment bool
	// Decidable reports whether the fragment's satisfiability problem is
	// decidable; when false, an unsatisfiable verdict only means "no
	// witness within the depth bound".
	Decidable bool
	// Engine is the decision procedure that actually ran.
	Engine Engine
	// Satisfiable is the verdict; Witness is a satisfying access path when
	// true.
	//
	// Determinism under WithParallelism: the verdict of a search that ran
	// to exhaustion (Truncated false) is identical for every parallelism.
	// With one walker the whole result is deterministic: a satisfiable
	// check returns the first witness the search meets in the schema's
	// depth-first order, the order lts.Explore visits paths in.
	// What may vary with the walker schedule at two or more walkers is (a)
	// which of several valid witnesses a satisfiable check returns — the
	// engine prefers the lowest shard, but a faster walker can win before
	// the early-cancel broadcast lands — and (b) PathsExplored on
	// early-stopped or path-capped searches. Every returned witness is
	// verified against the direct semantics regardless.
	Satisfiable bool
	Witness     *Path
	// PathsExplored counts visited path prefixes; Depth is the bound used.
	PathsExplored int
	Depth         int
	// Truncated reports that an unsatisfiable verdict is cap-relative
	// rather than exact, even when Decidable. Three causes set it:
	//
	//  1. Path cap — the search hit WithMaxPaths (or the engine default)
	//     before exhausting the space up to Depth.
	//  2. Depth interplay — the path cap fires on *prefixes including the
	//     empty root*, so a cap smaller than the space up to Depth cuts
	//     deep paths first; verdicts near the cap say nothing about longer
	//     witnesses even though Depth suggests they were in scope.
	//  3. Response cap — some subset-response fan-out was cut to
	//     WithMaxResponseChoices (engine default 3), so whole possible
	//     worlds were never examined (ResponsesCapped below).
	//
	// A truncated result must never be treated — or cached — as exact;
	// accesscheck/cache and accesscheck/server enforce this.
	Truncated bool
	// ResponsesCapped is cause 3 in isolation: the subset-response
	// enumeration was cut. It is always false for satisfiable results
	// (a verified witness is definitive regardless of caps).
	ResponsesCapped bool
	// AutomatonStates is the compiled state count (EngineAutomaton only).
	AutomatonStates int
	// ShardsCompleted / ShardsTotal state coverage explicitly when the
	// search ran a shard subset (WithShards) or was merged from one by a
	// fabric coordinator: how many canonical root shards the verdict
	// covers out of the plan's total. Both are zero for whole-space runs.
	// Completed < Total alongside Satisfiable=false and Truncated means
	// Unknown — no witness in the explored region, nothing claimed about
	// the rest.
	ShardsCompleted int
	ShardsTotal     int
	// Coverage estimates how much of the planned search space the verdict
	// covers, as the fraction of canonical root shards fully explored over
	// the shards the check targeted: 1 for exact answers (including final
	// truncated ones — the caps, not missing shards, are then what limits
	// them), strictly below 1 for resumable partials. Shards are the unit
	// because they are what resume can skip; paths explored per shard vary
	// too much for a path-ratio to order rounds honestly. Check never
	// returns a partial, so its answers carry 1.
	Coverage float64
	// Resumable reports that this is a suspended partial answer: the search
	// ran out of budget (or hit its round chunk) with root shards still
	// unexplored, a checkpoint captures the remaining frontier, and
	// re-running the identical check against that checkpoint continues
	// instead of restarting. Always false for exact and final truncated
	// answers. A resumable result is always Truncated, and is never
	// cache-admissible.
	Resumable bool
	// Elapsed is the wall time of preparing and searching the check: for
	// CheckAnytime, summed over the rounds on its checkpoint.
	Elapsed time.Duration
}

// Check decides satisfiability of f over the schema's access paths. It
// classifies f, dispatches the matching engine (unless WithEngine forced
// one) and runs one anytime round on a fresh checkpoint over every
// targeted shard (WithAnytimeChunk does not apply): the answer is exact,
// path-capped or an error, never a resumable partial. A formula the engine
// does not admit is refused before anything else; ctx is honoured
// throughout, so a context that is already cancelled or past its deadline
// returns its error before the search loop is entered, and expiry
// mid-search aborts promptly with ctx's error.
func (c *Checker) Check(ctx context.Context, sch *Schema, f Formula) (*Result, error) {
	ctx, err := c.entry("Check", ctx, sch, f)
	if err != nil {
		return nil, err
	}
	info := accltl.Classify(f)
	cp := &Checkpoint{engine: c.engineFor(info), chk: c, sch: sch, f: f}
	res, _, err := c.round(ctx, sch, f, info, cp, 0)
	if err == nil && res.Resumable {
		// With no chunk limit only an expiry leaves a targeted shard
		// unexplored.
		err = ctx.Err()
	}
	if isExpiry(err) {
		return nil, fmt.Errorf("accesscheck: Check: %w", err)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// entry checks the arguments of the entry point op: a schema and a formula
// are required, the checker must be valid for the schema (ValidateFor), and
// a nil ctx stands for context.Background.
func (c *Checker) entry(op string, ctx context.Context, sch *Schema, f Formula) (context.Context, error) {
	if sch == nil {
		return nil, fmt.Errorf("accesscheck: %s: nil schema", op)
	}
	if f == nil {
		return nil, fmt.Errorf("accesscheck: %s: nil formula", op)
	}
	if err := c.ValidateFor(sch); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx, nil
}

// newResult is the classification scaffold of a Result: the formula's
// features, its Table 1 fragment and the engine that runs it.
func newResult(info Info, engine Engine) *Result {
	frag, inFragment := info.Fragment()
	return &Result{
		Info:       info,
		Fragment:   frag,
		InFragment: inFragment,
		Decidable:  inFragment && frag.Decidable(),
		Engine:     engine,
	}
}

// prepared is one check's prepared search on its engine — an
// accltl.Prepared or an autom.Prepared behind one shape — derived once from
// the checker's configuration, the schema and the formula, and run any
// number of times over one plan: once per round of the checkpoint holding
// it.
type prepared struct {
	plan *lts.Plan
	// a is the compiled automaton of EngineAutomaton, nil otherwise.
	a *autom.Automaton
	// search searches the shards subset of the plan with parallelism
	// walkers. The result is meaningful even when err is non-nil:
	// CompletedShards and ResponsesCapped survive a deadline expiry, which
	// the checkpoint records.
	search func(ctx context.Context, parallelism int, shards []int) (accltl.SolveResult, error)
}

// states is the compiled automaton's state count (zero off
// EngineAutomaton).
func (p *prepared) states() int {
	if p.a == nil {
		return 0
	}
	return p.a.NumStates
}

// procedures are the accltl engines' bounded-search procedures. Each
// admits the formulas of its fragment (Procedure.Admit); the automaton
// admits what it compiles.
var procedures = map[Engine]accltl.Procedure{
	EngineX:       accltl.ProcX,
	EngineZeroAcc: accltl.ProcZeroAcc,
	EnginePlus:    accltl.ProcPlusDirect,
	EngineBounded: accltl.ProcBounded,
}

// prepare is the facade's one engine switch: it derives the search of f on
// engine — the compiled automaton's emptiness search, or the bounded search
// of the engine's accltl procedure — under the checker's configuration,
// enumerating its plan under ctx. It does not check f against the engine's
// fragment, so a plan exists for a formula the engine refuses.
func (c *Checker) prepare(ctx context.Context, sch *Schema, f Formula, engine Engine) (*prepared, error) {
	opts := c.solveOptions(ctx, sch)
	if engine == EngineAutomaton {
		a, err := autom.CompileAccLTLPlus(sch, f)
		if err != nil {
			return nil, err
		}
		ep, err := a.Prepare(opts)
		if err != nil {
			return nil, err
		}
		return &prepared{plan: ep.Plan(), a: a, search: ep.Search}, nil
	}
	bp, err := accltl.Prepare(procedures[engine], f, opts)
	if err != nil {
		return nil, err
	}
	return &prepared{plan: bp.Plan(), search: bp.Search}, nil
}

// ShardPlan enumerates the root shards a Check on (sch, f) under this
// checker's configuration would partition the search into, in the canonical
// order WithShards indexes (the schema's: method, then binding, then
// response). It prepares the search Check would run and returns its plan.
// The plan is a pure function of the
// schema, the formula and the verdict-affecting options — WithParallelism
// and WithShards themselves do not change it — so two processes configured
// identically derive identical plans; that determinism is what lets a
// distributed coordinator enumerate the partition, ship shard indexes to
// workers as plain data, and have each worker re-derive the same partition
// and execute its assigned slice. The bool result reports whether some
// root response fan-out was truncated to the response-choice cap during
// enumeration; a search reports such a cap in ResponsesCapped only if it
// runs a shard of that fan-out.
//
// Fragment membership is not validated here: a plan can be produced for a
// formula the dispatched engine would reject, and the rejection then
// surfaces from Check itself.
func (c *Checker) ShardPlan(ctx context.Context, sch *Schema, f Formula) ([]ShardID, bool, error) {
	ctx, err := c.entry("ShardPlan", ctx, sch, f)
	if err != nil {
		return nil, false, err
	}
	if err := ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("accesscheck: ShardPlan: %w", err)
	}
	p, err := c.prepare(ctx, sch, f, c.engineFor(accltl.Classify(f)))
	if err != nil {
		return nil, false, err
	}
	return p.plan.IDs(), p.plan.ResponsesCapped(), nil
}

// solveOptions is the checker's configuration as the options of a search
// on sch under ctx, for either engine; the prepared search takes
// parallelism and shards per run.
func (c *Checker) solveOptions(ctx context.Context, sch *Schema) accltl.SolveOptions {
	o := c.opts
	o.Context, o.Schema = ctx, sch
	return o
}

// ValidateFor returns an error naming each exact method (WithExactMethods,
// WithExactSpec) that sch does not declare, nil when there is none. A name
// the schema lacks would restrict nothing, so the search would silently
// answer another question. Every entry point that takes a schema checks
// it first, and a server calls it before it probes any cache.
func (c *Checker) ValidateFor(sch *Schema) error {
	var unknown []string
	for n := range c.opts.ExactMethods {
		if _, ok := sch.Method(n); !ok {
			unknown = append(unknown, strconv.Quote(n))
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	slices.Sort(unknown)
	return fmt.Errorf("accesscheck: exact method not declared by the schema: %s", strings.Join(unknown, ", "))
}

// engineFor is Check's engine dispatch for a formula with the features
// info: the forced engine if one was configured, otherwise the
// fragment-directed choice.
func (c *Checker) engineFor(info Info) Engine {
	if c.engine != EngineAuto {
		return c.engine
	}
	frag, inFragment := info.Fragment()
	switch {
	case !inFragment:
		return EngineBounded
	case frag == FragXZeroAcc:
		return EngineX
	case frag == FragZeroAcc || frag == FragZeroAccNeq:
		return EngineZeroAcc
	case frag == FragPlus:
		return EnginePlus
	default:
		return EngineBounded
	}
}

// Check is the one-shot form: build a throwaway Checker from opts and run
// it.
func Check(ctx context.Context, sch *Schema, f Formula, opts ...Option) (*Result, error) {
	c, err := NewChecker(opts...)
	if err != nil {
		return nil, err
	}
	return c.Check(ctx, sch, f)
}

// Holds evaluates f on a concrete access path under the direct semantics
// (Definition 2.1), starting from the checker's initial instance. The
// vocabulary follows the formula: 0-Acc formulas see the Sch_0-Acc view,
// everything else the full Sch_Acc view — matching what Check's dispatched
// engine would use.
func (c *Checker) Holds(f Formula, p *Path) (bool, error) {
	if f == nil {
		return false, fmt.Errorf("accesscheck: Holds: nil formula")
	}
	if p == nil {
		return false, fmt.Errorf("accesscheck: Holds: nil path")
	}
	ts, err := p.Transitions(c.opts.Initial)
	if err != nil {
		return false, err
	}
	voc := accltl.FullAcc
	if accltl.Classify(f).ZeroAcc {
		voc = accltl.ZeroAcc
	}
	return accltl.Satisfied(f, ts, voc)
}

// Holds is the one-shot form with an empty initial instance.
func Holds(f Formula, p *Path) (bool, error) {
	return (&Checker{}).Holds(f, p)
}
