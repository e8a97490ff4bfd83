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

	rounds          int
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

// Rounds counts the CheckAnytime rounds that have run against this
// checkpoint.
func (cp *Checkpoint) Rounds() int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.rounds
}

// PlanSize is the size of the canonical shard partition the completed
// indexes refer to (zero until a round has planned or searched it).
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
// (zero while the plan size is unknown).
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

// prepareOn returns cp's prepared search, preparing it as mode says if no
// plan or round on cp has yet, and then records the plan's size once it is
// shardable. Called with cp.mu held.
func (c *Checker) prepareOn(ctx context.Context, sch *Schema, f Formula, info Info, cp *Checkpoint, mode prepareMode) (*prepared, error) {
	if cp.search == nil {
		p, err := c.prepare(ctx, sch, f, cp.engine, info, mode)
		if err != nil {
			return nil, err
		}
		cp.search = p
		if n := p.plan.Len(); n >= 2 {
			cp.planSize = n
		}
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
	info := accltl.Classify(f)
	cp, err := c.checkpointFor(sch, f, c.engineFor(info), prev)
	if err != nil {
		return nil, nil, err
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	p, err := c.prepareOn(ctx, sch, f, info, cp, ungated)
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
//     while planning: the retry then prepares the search again).
//   - A search whose round hit the path cap (WithMaxPaths) is a final
//     truncated answer, not a resumable one — the cap is a per-search
//     budget whose exact semantics do not compose across rounds — and the
//     returned checkpoint is nil.
//   - Unshardable checks (the plan has fewer than two shards, or planning
//     failed for a reason other than ctx) run as one plain Check on the
//     search planning prepared: exact or error, nothing to resume, and the
//     verdict and witness Check itself returns. PathsExplored is Check's
//     too, unless an earlier fallback on the same checkpoint left its
//     memo warm; the checkpoint's lock keeps the two searches apart.
//
// PathsExplored, Elapsed and ResponsesCapped accumulate across rounds;
// Depth, the verdict and the witness are those of the (sub)search. The
// checkpoint serializes its rounds: concurrent identical requests resume
// one at a time.
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

	// The round holds the checkpoint from planning on: every search on its
	// prepared search, the one-shard fallback included, runs alone (the
	// dominance memo is sound across rounds, never across concurrent
	// searches).
	cp.mu.Lock()
	defer cp.mu.Unlock()

	// Resolve the target shard set. A shard-restricted checker targets its
	// configured subset; its plan size comes from ShardPlanAnytime when the
	// caller (the fabric worker) planned through the checkpoint, else from
	// its first round. A whole check targets the full canonical partition
	// and plans it once, through the checkpoint, so its first round
	// executes that same enumeration.
	target := c.opts.Shards
	if target == nil {
		if cp.planSize == 0 {
			p, err := c.prepareOn(ctx, sch, f, info, cp, ungated)
			if err != nil && ctx.Err() != nil {
				// The budget died while planning: nothing is covered and
				// nothing was prepared; a retry prepares the search again.
				return nil, cp, err
			}
			if err != nil || cp.planSize == 0 {
				// Unshardable (or planning failed): there is no frontier to
				// slice, so anytime degenerates to the plain check, on the
				// search planning just prepared (or, if planning failed, a
				// fresh one that reports Check's error).
				res, cerr := c.checkOn(ctx, sch, f, info, p)
				if cerr != nil {
					return nil, nil, cerr
				}
				res.Coverage = 1
				return res, nil, nil
			}
		}
		target = make([]int, cp.planSize)
		for i := range target {
			target[i] = i
		}
	}

	remaining := make([]int, 0, len(target))
	for _, s := range target {
		if !cp.completed.has(s) {
			remaining = append(remaining, s)
		}
	}
	if len(remaining) == 0 {
		// Prior rounds already explored every targeted shard without a
		// witness: synthesize the exact-for-target answer from the frontier.
		return c.anytimeExact(info, cp, target, nil), cp, nil
	}
	if err := ctx.Err(); err != nil {
		// Budget already blown before this round could start.
		return c.anytimeAfterExpiry(info, cp, target, err)
	}

	attempt := remaining
	if c.anytimeChunk > 0 && len(attempt) > c.anytimeChunk {
		attempt = attempt[:c.anytimeChunk]
	}

	start := time.Now()
	var sr accltl.SolveResult
	p, err := c.prepareOn(ctx, sch, f, info, cp, gated)
	if err == nil {
		sr, err = p.run(ctx, c.opts.Parallelism, attempt)
	}
	if cp.planSize == 0 {
		cp.planSize = sr.TotalShards
	}
	cp.rounds++
	cp.paths += sr.PathsExplored
	cp.elapsed += time.Since(start)
	cp.responsesCapped = cp.responsesCapped || sr.ResponsesCapped
	if sr.Depth > 0 {
		cp.depth = sr.Depth
	}
	if err == nil && !sr.Satisfiable && !sr.Truncated {
		// The round ran to completion: every attempted shard was fully
		// explored, including the degenerate case where the root visit
		// settled the space before the shard walk began (the engine then
		// reports no per-shard completions at all).
		for _, s := range attempt {
			cp.completed.add(s)
		}
	} else {
		for _, s := range sr.CompletedShards {
			cp.completed.add(s)
		}
	}

	switch {
	case err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled):
		// Real failure: nothing to answer, nothing worth resuming.
		return nil, nil, err
	case err != nil:
		return c.anytimeAfterExpiry(info, cp, target, err)
	case sr.Satisfiable:
		res := c.anytimeBase(info, cp)
		res.Satisfiable = true
		res.Witness = sr.Witness
		res.Depth = sr.Depth
		res.Coverage = 1
		c.tagShardSubset(res, cp, target)
		return res, cp, nil
	case sr.Truncated:
		// Path-capped round: the cap's exact budget semantics do not
		// compose across rounds, so this is a final truncated answer — and
		// the checkpoint dies with it (its frontier would misrepresent a
		// search the cap, not the shard set, cut short).
		res := c.anytimeBase(info, cp)
		res.Truncated = true
		res.Depth = sr.Depth
		res.Coverage = 1
		c.tagShardSubset(res, cp, target)
		return res, nil, nil
	default:
		done := cp.completedWithinLocked(target)
		if len(done) == len(target) {
			return c.anytimeExact(info, cp, target, &sr), cp, nil
		}
		// Chunked round: more frontier remains by construction.
		return c.anytimePartial(info, cp, target, len(done)), cp, nil
	}
}

// anytimeAfterExpiry resolves a blown budget against the frontier: a
// resumable partial when at least one targeted shard is covered, the bare
// context error (plus the warm checkpoint) when none is. Called with cp.mu
// held.
func (c *Checker) anytimeAfterExpiry(info Info, cp *Checkpoint, target []int, err error) (*Result, *Checkpoint, error) {
	done := cp.completedWithinLocked(target)
	if len(done) == 0 {
		return nil, cp, err
	}
	if len(done) == len(target) {
		// The expiry hit after the frontier was already complete (a resume
		// whose prior rounds covered everything): still an exact answer.
		return c.anytimeExact(info, cp, target, nil), cp, nil
	}
	return c.anytimePartial(info, cp, target, len(done)), cp, nil
}

// anytimeBase builds the classification scaffold of a Result with the
// cumulative round statistics folded in. Called with cp.mu held.
func (c *Checker) anytimeBase(info Info, cp *Checkpoint) *Result {
	res := newResult(info, cp.engine)
	res.PathsExplored = cp.paths
	res.Depth = cp.depth
	res.AutomatonStates = cp.search.states()
	res.Elapsed = cp.elapsed
	return res
}

// anytimeExact is the exact-for-target unsatisfiable answer synthesized
// from a complete frontier. sr, when non-nil, is the round that completed
// the cover (its Depth is the freshest bound). Called with cp.mu held.
func (c *Checker) anytimeExact(info Info, cp *Checkpoint, target []int, sr *accltl.SolveResult) *Result {
	res := c.anytimeBase(info, cp)
	if sr != nil && sr.Depth > 0 {
		res.Depth = sr.Depth
	}
	res.Coverage = 1
	res.ResponsesCapped = cp.responsesCapped
	res.Truncated = cp.responsesCapped
	c.tagShardSubset(res, cp, target)
	return res
}

// anytimePartial is the resumable coverage-tagged partial answer: no
// witness in the explored region, nothing claimed about the rest. Called
// with cp.mu held.
func (c *Checker) anytimePartial(info Info, cp *Checkpoint, target []int, done int) *Result {
	res := c.anytimeBase(info, cp)
	res.Truncated = true
	res.ResponsesCapped = cp.responsesCapped
	res.Resumable = true
	res.Coverage = float64(done) / float64(len(target))
	res.ShardsCompleted = done
	res.ShardsTotal = cp.planSize
	return res
}

// tagShardSubset mirrors Check's coverage tagging for shard-restricted
// checkers on exact answers: a subset verdict names what it covers. Whole
// checks keep zero tags, like Check. Called with cp.mu held.
func (c *Checker) tagShardSubset(res *Result, cp *Checkpoint, target []int) {
	if c.opts.Shards == nil {
		return
	}
	res.ShardsCompleted = len(target)
	res.ShardsTotal = cp.planSize
}
