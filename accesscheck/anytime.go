package accesscheck

// Anytime checking: suspend/resume over the canonical shard partition. A
// deadline-expired sharded search does not discard its work — CheckAnytime
// captures which root shards were fully explored, keeps the engines' memo
// tables warm, and returns a coverage-tagged resumable partial; running the
// identical check again against the returned Checkpoint executes only the
// unfinished shard subset (a shard subset of lts.Plan.Explore underneath)
// and merges with the suspended progress, so repeated budget pressure
// converges monotonically to the exact verdict instead of restarting from
// scratch every time.
//
// Soundness across rounds rests on three invariants the layers below
// maintain:
//
//   - a shard is recorded completed only when its whole subtree walk
//     returned without a witness, an error, a cap denial or a cancel
//     (lts.Report.CompletedShards), so skipping it in a later round can
//     never hide a witness;
//   - the dominance memo of the checkpoint's prepared search
//     (accltl.Prepared / autom.Prepared) loses the commitments of walks
//     that were cut short before every search returns (lts.Product's
//     scrub), so an entry a resumed round prunes against was always fully
//     searched by some earlier round;
//   - the engines report the response caps a search met on every return
//     without a witness, an expired round's included, so a cap met in a
//     shard later rounds skip still marks the settled answer truncated.
//
// Exact results and suspended partials never mix: a Checkpoint is not an
// answer and is never served as one, and every resumable Result is
// Truncated, which the exact-only result caches refuse by construction.

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"sync"
	"time"

	"accltl/internal/accltl"
)

// Checkpoint is the suspended state of one check: which canonical root
// shards have been fully explored so far, the cumulative search statistics,
// and the check's prepared search with its warm tables. It belongs to the
// check it was created for whatever the shard subset, so partial progress
// made by different shard subsets of the same check composes into one
// frontier. A resume matches it to its check by structure, or failing
// that by the check's shard-less fingerprint (see Checker.Fingerprint).
//
// A Checkpoint serializes the rounds that use it: CheckAnytime holds an
// internal lock for the duration of a round, so concurrent identical
// requests resume one after the other against a consistent frontier rather
// than racing on the shared memo tables. All exported methods are safe for
// concurrent use.
type Checkpoint struct {
	mu        sync.Mutex
	engine    Engine
	planSize  int
	completed shardSet

	paths           int
	elapsed         time.Duration
	responsesCapped bool
	depth           int

	// search is the check's prepared search: built under mu by the first
	// plan or round on the checkpoint, and run by every later round.
	search *prepared

	// The check the checkpoint was created for: by chk, on sch and f. key
	// is its shard-less fingerprint, computed only when a resume cannot
	// match its check by structure.
	key string
	chk *Checker
	sch *Schema
	f   Formula
}

// fingerprint returns the shard-less fingerprint of the check the
// checkpoint was created for.
func (cp *Checkpoint) fingerprint() string {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.key == "" {
		cp.key = cp.chk.anytimeKey(cp.sch, cp.f)
	}
	return cp.key
}

// PlanSize is the size of the canonical shard partition the completed
// indexes refer to (zero until a round or ShardPlanAnytime has prepared
// the check's search).
func (cp *Checkpoint) PlanSize() int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.planSize
}

// Completed returns the fully-explored canonical shard indexes, ascending.
func (cp *Checkpoint) Completed() []int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.completed.members()
}

// CompletedWithin returns, ascending, the subset of the given canonical
// indexes the checkpoint has fully explored — what a fabric worker reports
// as the covered slice of its assigned shard group.
func (cp *Checkpoint) CompletedWithin(indexes []int) []int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.completedWithinLocked(indexes)
}

func (cp *Checkpoint) completedWithinLocked(indexes []int) []int {
	within := shardSet{words: make([]uint64, len(cp.completed.words))}
	for _, i := range indexes {
		if cp.completed.has(i) {
			within.add(i)
		}
	}
	return within.members()
}

// Coverage is the fraction of the plan's shards fully explored so far
// (zero while the plan size is unknown, and for a plan with no shard).
func (cp *Checkpoint) Coverage() float64 {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.planSize == 0 {
		return 0
	}
	return float64(cp.completed.n) / float64(cp.planSize)
}

// shardSet is a set of canonical shard indexes, a bitset: a checkpoint's
// frontier is a dense prefix-heavy subset of [0, plan size).
type shardSet struct {
	words []uint64
	n     int // members
}

func (s *shardSet) has(i int) bool {
	return i >= 0 && i/64 < len(s.words) && s.words[i/64]&(1<<(i%64)) != 0
}

// add inserts an index, growing the set as needed; a negative index names
// no shard and is ignored.
func (s *shardSet) add(i int) {
	if i < 0 || s.has(i) {
		return
	}
	for i/64 >= len(s.words) {
		s.words = append(s.words, 0)
	}
	s.words[i/64] |= 1 << (i % 64)
	s.n++
}

// members returns the indexes in the set, ascending.
func (s *shardSet) members() []int {
	out := make([]int, 0, s.n)
	for w, word := range s.words {
		for ; word != 0; word &= word - 1 {
			out = append(out, w*64+bits.TrailingZeros64(word))
		}
	}
	return out
}

// anytimeKey is the checkpoint identity of a check under this checker: the
// fingerprint with the shard subset stripped, so every shard slice of one
// check shares a frontier. For checkers without WithShards it equals
// Fingerprint.
func (c *Checker) anytimeKey(sch *Schema, f Formula) string {
	if c.opts.Shards == nil {
		return c.Fingerprint(sch, f)
	}
	shardless := *c
	shardless.opts.Shards = nil
	return shardless.Fingerprint(sch, f)
}

// checkpointFor returns prev once it is checked to belong to this check,
// or a fresh checkpoint when prev is nil. A checkpoint created for a
// structurally equal check belongs to it; any other must carry the same
// shard-less fingerprint.
func (c *Checker) checkpointFor(sch *Schema, f Formula, engine Engine, prev *Checkpoint) (*Checkpoint, error) {
	if prev == nil {
		return &Checkpoint{engine: engine, chk: c, sch: sch, f: f}, nil
	}
	if prev.sameCheck(c, sch, f) {
		return prev, nil
	}
	if key, pk := c.anytimeKey(sch, f), prev.fingerprint(); pk != key {
		return nil, fmt.Errorf("accesscheck: checkpoint belongs to a different check (key %q, want %q)", pk, key)
	}
	return prev, nil
}

// sameCheck reports whether cp was created for the check c runs on sch and
// f, by structure: the same verdict-affecting configuration and deeply
// equal schemas and formulas. Each renders from its structure alone, so
// equal structures share a fingerprint; false means only "not proven".
// The fields compared are set at creation and never written again, so no
// lock is needed.
func (cp *Checkpoint) sameCheck(c *Checker, sch *Schema, f Formula) bool {
	return reflect.DeepEqual(cp.chk.verdictConfig(), c.verdictConfig()) &&
		reflect.DeepEqual(cp.sch, sch) && reflect.DeepEqual(cp.f, f)
}

// verdictConfig is the checker with what a resume may change zeroed: the
// parallelism and anytime chunk, which do not change the verdict, and the
// shard subset, because sibling slices share a frontier.
func (c *Checker) verdictConfig() Checker {
	v := *c
	v.opts.Parallelism, v.opts.Shards, v.anytimeChunk = 0, nil, 0
	return v
}

// prepareOn returns cp's prepared search, preparing it and recording its
// plan's size if no round or plan on cp has yet. Called with cp.mu held.
func (c *Checker) prepareOn(ctx context.Context, sch *Schema, f Formula, cp *Checkpoint) (*prepared, error) {
	if cp.search == nil {
		p, err := c.prepare(ctx, sch, f, cp.engine)
		if err != nil {
			return nil, err
		}
		cp.search, cp.planSize = p, p.plan.Len()
	}
	return cp.search, nil
}

// ShardPlanAnytime is ShardPlan through a checkpoint, as CheckAnytime is
// Check through one: it prepares the check's search on prev (a fresh
// checkpoint when prev is nil, with prev under CheckAnytime's contract)
// and returns that checkpoint with the search's plan. A CheckAnytime handed
// the checkpoint searches the partition this call enumerated instead of
// enumerating it again — how a fabric worker verifies a shard's plan and
// then runs it with one enumeration.
func (c *Checker) ShardPlanAnytime(ctx context.Context, sch *Schema, f Formula, prev *Checkpoint) ([]ShardID, *Checkpoint, error) {
	ctx, err := c.entry("ShardPlanAnytime", ctx, sch, f)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("accesscheck: ShardPlanAnytime: %w", err)
	}
	cp, err := c.checkpointFor(sch, f, c.engineFor(accltl.Classify(f)), prev)
	if err != nil {
		return nil, nil, err
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	p, err := c.prepareOn(ctx, sch, f, cp)
	if err != nil {
		return nil, nil, err
	}
	return p.plan.IDs(), cp, nil
}

// CheckAnytime is Check with suspend/resume: it runs (a slice of) the check
// against prev's frontier and returns the answer plus the checkpoint to
// carry forward.
//
// Contract:
//
//   - prev nil starts fresh; prev non-nil must come from a CheckAnytime or
//     ShardPlanAnytime of an identically-configured checker on the same
//     schema and formula (same shard-less fingerprint), else an error is
//     returned.
//   - An exact answer (witness found, or every targeted shard explored)
//     comes back with Coverage 1 and Resumable false; the caller should
//     drop any stored checkpoint for the key. The returned checkpoint is
//     still non-nil so shard-sliced callers can keep the warm memo for
//     sibling slices.
//   - A deadline/cancel expiry that completed at least one targeted shard
//     (this round or a previous one) returns a nil error and a resumable
//     partial: Satisfiable false, Truncated true, Coverage < 1, and the
//     checkpoint capturing the remaining frontier. Re-invoking with that
//     checkpoint executes only the unfinished shards.
//   - An expiry with no completed shard returns (nil, checkpoint, ctx
//     error): no honest coverage to report, but a retry on the checkpoint
//     reuses its prepared search and warm memo (none if the expiry came
//     while preparing: the retry then prepares the search again).
//   - A search whose round hit the path cap (WithMaxPaths) is a final
//     truncated answer, not a resumable one — the cap is a per-search
//     budget whose exact semantics do not compose across rounds — and the
//     returned checkpoint is nil.
//
// A plan of any size runs through the same round: a plan of one shard
// settles in its first completed round, and a plan of none searches only
// the root prefix, in every round. PathsExplored, Elapsed and
// ResponsesCapped accumulate across rounds, and Elapsed includes preparing
// the search; Depth, the verdict and the witness are those of the
// (sub)search. The checkpoint serializes its rounds: concurrent identical
// requests resume one at a time.
func (c *Checker) CheckAnytime(ctx context.Context, sch *Schema, f Formula, prev *Checkpoint) (*Result, *Checkpoint, error) {
	ctx, err := c.entry("CheckAnytime", ctx, sch, f)
	if err != nil {
		return nil, nil, err
	}
	info := accltl.Classify(f)
	cp, err := c.checkpointFor(sch, f, c.engineFor(info), prev)
	if err != nil {
		return nil, nil, err
	}
	return c.round(ctx, sch, f, info, cp, c.anytimeChunk)
}

// round is one anytime round of the check of f, whose features are info,
// on cp: it searches at most chunk (0: all) of the targeted shards cp has
// not explored yet — the checker's shard subset, else the whole plan — and
// answers from cp's totals. A formula the engine does not admit is refused
// before anything is prepared, as the engine's entry point (accltl.SolveX
// and its siblings) does.
func (c *Checker) round(ctx context.Context, sch *Schema, f Formula, info Info, cp *Checkpoint, chunk int) (*Result, *Checkpoint, error) {
	if proc, ok := procedures[cp.engine]; ok {
		if err := proc.Admit(info); err != nil {
			return nil, nil, err
		}
	}
	// The round holds the checkpoint from preparing on: every search on its
	// prepared search runs alone (the dominance memo is sound across
	// rounds, never across concurrent searches).
	cp.mu.Lock()
	defer cp.mu.Unlock()
	start := time.Now()
	p, err := c.prepareOn(ctx, sch, f, cp)
	if err != nil {
		if isExpiry(err) {
			// Nothing is covered and nothing was prepared; a retry
			// prepares the search again.
			return nil, cp, err
		}
		return nil, nil, err
	}
	target := c.opts.Shards
	if target == nil {
		target = make([]int, cp.planSize)
		for i := range target {
			target[i] = i
		}
	}
	attempt := make([]int, 0, len(target))
	for _, s := range target {
		if !cp.completed.has(s) && (chunk == 0 || len(attempt) < chunk) {
			attempt = append(attempt, s)
		}
	}
	if len(attempt) == 0 && len(target) > 0 {
		// Earlier rounds explored every targeted shard without a witness.
		// A plan with no shard has only its root, which only a search
		// settles, so it never answers from the frontier.
		return c.answer(info, cp, target, nil, false), cp, nil
	}
	if err = ctx.Err(); err == nil {
		var sr accltl.SolveResult
		sr, err = p.search(ctx, c.opts.Parallelism, attempt)
		cp.paths += sr.PathsExplored
		cp.elapsed += time.Since(start)
		cp.responsesCapped = cp.responsesCapped || sr.ResponsesCapped
		if sr.Depth > 0 {
			cp.depth = sr.Depth
		}
		completed := sr.CompletedShards
		if err == nil && !sr.Satisfiable && !sr.Truncated {
			// The round ran to completion: every attempted shard was fully
			// explored, including when the root visit settled the space
			// before the shard walk began (the engine then reports no
			// per-shard completions at all).
			completed = attempt
		}
		for _, s := range completed {
			cp.completed.add(s)
		}
		switch {
		case err == nil && sr.Truncated:
			// Path-capped round: the cap's exact budget semantics do not
			// compose across rounds, so this is a final truncated answer —
			// and the checkpoint dies with it (its frontier would
			// misrepresent a search the cap, not the shard set, cut short).
			return c.answer(info, cp, target, nil, true), nil, nil
		case err == nil:
			return c.answer(info, cp, target, sr.Witness, false), cp, nil
		}
	}
	if !isExpiry(err) {
		// Real failure: nothing to answer, nothing worth resuming.
		return nil, nil, err
	}
	if len(cp.completedWithinLocked(target)) == 0 {
		// Expired with no targeted shard explored: no honest coverage to
		// answer with, but the checkpoint keeps the warm search.
		return nil, cp, err
	}
	return c.answer(info, cp, target, nil, false), cp, nil
}

// isExpiry reports whether err is a context's deadline or cancellation.
func isExpiry(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// answer is the Result of a round on cp that targeted target, read off
// cp's totals: witness is the round's witness (nil without one), and
// pathCapped reports that the round hit the path cap. Every Result of
// Check and CheckAnytime is built here. Called with cp.mu held.
func (c *Checker) answer(info Info, cp *Checkpoint, target []int, witness *Path, pathCapped bool) *Result {
	// A witness or the path cap settles the whole target; otherwise the
	// frontier says how much of it is explored.
	done := len(target)
	if witness == nil && !pathCapped {
		done = len(cp.completedWithinLocked(target))
	}
	res := newResult(info, cp.engine)
	res.Satisfiable, res.Witness = witness != nil, witness
	res.PathsExplored, res.Depth, res.Elapsed = cp.paths, cp.depth, cp.elapsed
	res.AutomatonStates = cp.search.states()
	// A verified witness is definitive whatever the caps. Without one, a
	// capped response fan-out undermines the verdict like a path cap or an
	// unexplored shard: all three fold into Truncated, so no caller (or
	// cache) mistakes a capped or partial search for an exact one.
	res.ResponsesCapped = witness == nil && cp.responsesCapped
	res.Resumable = done < len(target)
	res.Truncated = pathCapped || res.ResponsesCapped || res.Resumable
	coverage := 1.0
	if res.Resumable {
		coverage = float64(done) / float64(len(target))
	}
	res.Coverage = coverage
	if res.Resumable || c.opts.Shards != nil {
		// A partial or a shard subset's answer names what it covers; whole
		// exact answers carry no shard tags.
		res.ShardsCompleted, res.ShardsTotal = done, cp.planSize
	}
	return res
}
