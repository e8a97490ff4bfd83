package accesscheck

// The task-generic face of the facade. Checker.Check decides AccLTL
// satisfiability; the paper's surface is wider — query containment
// (Chandra–Merlin homomorphisms, Proposition 4.11 datalog expansions,
// Example 2.2 containment under access patterns), relevance of accesses
// (Li's accessible-part datalog program, Example 2.3 long-term relevance)
// and FD+ID implication via the chase. A Task names one of the three
// problems beside satisfiability plus its canonical inputs; Checker.Do runs
// it and answers a TaskResult — one envelope (verdict, truncation, stats,
// engine) for every kind, so the cache, the batch runner, the server routes
// and the CLI can treat all four uniformly. A check runs through Check or
// CheckAnytime, and the server wraps its Result in a TaskResult of kind
// TaskCheck itself.
//
// The task kinds are self-contained — their payload carries everything that
// affects the verdict, and the checker's check-pipeline options (engine,
// path restrictions, bounds) deliberately do not leak into them; see
// FingerprintTask for the cache-identity consequences.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"accltl/internal/datalog"
	"accltl/internal/deps"
	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/relevance"
)

// Re-exports for task inputs, so consumers build tasks without importing
// internal packages.
type (
	// Value is one typed constant of an instance (build with Str/Int/Bool).
	Value = instance.Value
	// Tuple is an ordered list of values.
	Tuple = instance.Tuple
	// DatalogProgram is a datalog program with a goal predicate (build with
	// ParseProgram).
	DatalogProgram = datalog.Program
	// DatalogRule is one rule of a DatalogProgram.
	DatalogRule = datalog.Rule
	// FD is a functional dependency R: Source → Target (positions 0-based).
	FD = deps.FD
	// ID is an inclusion dependency SrcRel[SrcPos] ⊆ DstRel[DstPos].
	ID = deps.ID
)

// Str builds a string constant.
func Str(v string) Value { return instance.Str(v) }

// Int builds an integer constant.
func Int(v int64) Value { return instance.Int(v) }

// Bool builds a boolean constant.
func Bool(v bool) Value { return instance.Bool(v) }

// NewInstance builds an empty instance over the schema.
func NewInstance(sch *Schema) *Instance { return instance.NewInstance(sch) }

// TrueSentence is the always-true first-order sentence (the ⊤ letter guard
// of an automaton edge, for example).
func TrueSentence() Sentence { return fo.Truth{Val: true} }

// TaskKind names one of the paper's decision problems the facade serves.
type TaskKind int

const (
	// TaskCheck is AccLTL satisfiability — the original Check pipeline.
	TaskCheck TaskKind = iota
	// TaskContainment is query containment (UCQ, datalog, or under access
	// patterns; see ContainmentMode).
	TaskContainment
	// TaskRelevance is access relevance: the accessible part / maximal
	// answer (Li's datalog program) or long-term relevance of one access
	// (Example 2.3).
	TaskRelevance
	// TaskChase is FD+ID implication via the chase (Γ ⊨ σ).
	TaskChase
)

// String names the kind as the wire format and CLI spell it.
func (k TaskKind) String() string {
	switch k {
	case TaskCheck:
		return "check"
	case TaskContainment:
		return "containment"
	case TaskRelevance:
		return "relevance"
	case TaskChase:
		return "chase"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// ParseTaskKind reads a kind name as printed by TaskKind.String; the empty
// string means TaskCheck.
func ParseTaskKind(s string) (TaskKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "check":
		return TaskCheck, nil
	case "containment":
		return TaskContainment, nil
	case "relevance":
		return TaskRelevance, nil
	case "chase":
		return TaskChase, nil
	default:
		return TaskCheck, fmt.Errorf("accesscheck: unknown task kind %q (want check, containment, relevance or chase)", s)
	}
}

// ContainmentMode selects the containment engine.
type ContainmentMode int

const (
	// ContainUCQ decides Q1 ⊆ Q2 for positive queries by Chandra–Merlin
	// canonical-database homomorphism. Exact.
	ContainUCQ ContainmentMode = iota
	// ContainDatalog decides Program ⊆ Q2 by Proposition 4.11 proof-tree
	// expansions: refutations exact, confirmations exact iff every
	// expansion fit within the depth bound.
	ContainDatalog
	// ContainAccess decides Q1 ⊆ Q2 relative to a schema's access patterns
	// over grounded paths (Example 2.2), by bounded AccLTL search:
	// refutations (a counterexample path) exact, confirmations
	// depth-bound-relative.
	ContainAccess
)

// String names the mode as the wire format spells it.
func (m ContainmentMode) String() string {
	switch m {
	case ContainUCQ:
		return "ucq"
	case ContainDatalog:
		return "datalog"
	case ContainAccess:
		return "access"
	default:
		return fmt.Sprintf("ContainmentMode(%d)", int(m))
	}
}

// ParseContainmentMode reads a mode name; the empty string means ContainUCQ.
func ParseContainmentMode(s string) (ContainmentMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "ucq":
		return ContainUCQ, nil
	case "datalog":
		return ContainDatalog, nil
	case "access":
		return ContainAccess, nil
	default:
		return ContainUCQ, fmt.Errorf("accesscheck: unknown containment mode %q (want ucq, datalog or access)", s)
	}
}

// ContainmentTask is the TaskContainment payload. The fields used depend on
// Mode: ContainUCQ reads Q1/Q2; ContainDatalog reads Program/Q2/Depth;
// ContainAccess reads Schema/Q1/Q2/Seed/Depth.
type ContainmentTask struct {
	Mode ContainmentMode
	// Q1 and Q2 are positive first-order sentences; containment asks
	// Q1 ⊆ Q2 (datalog mode: Program ⊆ Q2).
	Q1, Q2 Sentence
	// Program is the left-hand side in datalog mode.
	Program *DatalogProgram
	// Depth bounds the search: the unfolding depth in datalog mode (0 =
	// program-derived default), the path depth in access mode (0 = derived).
	Depth int
	// Schema supplies the access patterns in access mode.
	Schema *Schema
	// Seed is the initially known instance in access mode (nil = accesses
	// must start from input-free methods).
	Seed *Instance
}

// RelevanceTask is the TaskRelevance payload. Two modes share it:
//
//   - Probe != "": long-term relevance (Example 2.3) of the boolean access
//     (Probe, Binding) to Query, searched over access paths from the empty
//     instance. Grounded/MaxDepth/Universe tune the search.
//   - Probe == "": accessible part and maximal answer (Li's program) —
//     Hidden is the concealed instance, Seed the initially known values,
//     and the verdict is whether Query holds on the accessible part.
type RelevanceTask struct {
	Schema *Schema
	// Probe names the boolean access method whose relevance is asked;
	// empty selects accessible-part mode.
	Probe string
	// Binding is the probe's input tuple.
	Binding Tuple
	// Query is the boolean positive query under examination (required).
	Query Sentence
	// Hidden and Seed drive accessible-part mode.
	Hidden *Instance
	Seed   *Instance
	// Grounded restricts the long-term-relevance search to grounded paths.
	Grounded bool
	// MaxDepth bounds the long-term-relevance search (0 = derived).
	MaxDepth int
	// Universe overrides the witness universe of the long-term-relevance
	// search.
	Universe *Instance
}

// ChaseTask is the TaskChase payload: does Γ = FDs ∪ IDs imply Sigma?
type ChaseTask struct {
	// Arities gives the arity of every relation the dependencies mention.
	Arities map[string]int
	FDs     []FD
	IDs     []ID
	Sigma   FD
	// StepBudget caps chase steps (0 = 10000). FD+ID implication is
	// undecidable, so an exhausted budget answers Unknown.
	StepBudget int
}

// Task is one unit of facade work: a kind plus exactly the matching payload.
type Task struct {
	Kind        TaskKind
	Containment *ContainmentTask
	Relevance   *RelevanceTask
	Chase       *ChaseTask
}

// NewUCQContainmentTask asks Q1 ⊆ Q2 for positive queries.
func NewUCQContainmentTask(q1, q2 Sentence) *Task {
	return &Task{Kind: TaskContainment, Containment: &ContainmentTask{Mode: ContainUCQ, Q1: q1, Q2: q2}}
}

// NewDatalogContainmentTask asks Program ⊆ q up to the unfolding depth
// (0 = program-derived default).
func NewDatalogContainmentTask(p *DatalogProgram, q Sentence, depth int) *Task {
	return &Task{Kind: TaskContainment, Containment: &ContainmentTask{Mode: ContainDatalog, Program: p, Q2: q, Depth: depth}}
}

// NewAccessContainmentTask asks Q1 ⊆ Q2 under the schema's access patterns
// (Example 2.2), searching grounded paths from seed up to depth.
func NewAccessContainmentTask(sch *Schema, q1, q2 Sentence, seed *Instance, depth int) *Task {
	return &Task{Kind: TaskContainment, Containment: &ContainmentTask{
		Mode: ContainAccess, Schema: sch, Q1: q1, Q2: q2, Seed: seed, Depth: depth}}
}

// NewRelevanceTask wraps a relevance payload as a Task.
func NewRelevanceTask(rt *RelevanceTask) *Task {
	return &Task{Kind: TaskRelevance, Relevance: rt}
}

// NewChaseTask wraps a chase payload as a Task.
func NewChaseTask(ct *ChaseTask) *Task {
	return &Task{Kind: TaskChase, Chase: ct}
}

// Validate checks that the task is well-formed: the payload matching Kind is
// set (and only that one), and its per-kind requirements hold.
func (t *Task) Validate() error {
	if t == nil {
		return fmt.Errorf("accesscheck: nil Task")
	}
	set := 0
	if t.Containment != nil {
		set++
	}
	if t.Relevance != nil {
		set++
	}
	if t.Chase != nil {
		set++
	}
	if set != 1 {
		return fmt.Errorf("accesscheck: Task must carry exactly one payload, has %d", set)
	}
	switch t.Kind {
	case TaskContainment:
		ct := t.Containment
		if ct == nil {
			return fmt.Errorf("accesscheck: %s task without Containment payload", t.Kind)
		}
		if ct.Depth < 0 {
			return fmt.Errorf("accesscheck: containment task: negative depth %d", ct.Depth)
		}
		switch ct.Mode {
		case ContainUCQ:
			if ct.Q1 == nil || ct.Q2 == nil {
				return fmt.Errorf("accesscheck: ucq containment needs both Q1 and Q2")
			}
		case ContainDatalog:
			if ct.Program == nil {
				return fmt.Errorf("accesscheck: datalog containment needs a Program")
			}
			if ct.Q2 == nil {
				return fmt.Errorf("accesscheck: datalog containment needs Q2")
			}
		case ContainAccess:
			if ct.Schema == nil {
				return fmt.Errorf("accesscheck: access containment needs a Schema")
			}
			if ct.Q1 == nil || ct.Q2 == nil {
				return fmt.Errorf("accesscheck: access containment needs both Q1 and Q2")
			}
		default:
			return fmt.Errorf("accesscheck: unknown containment mode %v", ct.Mode)
		}
	case TaskRelevance:
		rt := t.Relevance
		if rt == nil {
			return fmt.Errorf("accesscheck: %s task without Relevance payload", t.Kind)
		}
		if rt.Schema == nil {
			return fmt.Errorf("accesscheck: relevance task: nil schema")
		}
		if rt.Query == nil {
			return fmt.Errorf("accesscheck: relevance task: nil query")
		}
		if rt.MaxDepth < 0 {
			return fmt.Errorf("accesscheck: relevance task: negative max depth %d", rt.MaxDepth)
		}
		if rt.Probe == "" && rt.Hidden == nil {
			return fmt.Errorf("accesscheck: relevance task needs a Probe (long-term relevance) or a Hidden instance (accessible part)")
		}
		if rt.Probe != "" {
			if _, ok := rt.Schema.Method(rt.Probe); !ok {
				return fmt.Errorf("accesscheck: relevance task: schema has no method %q", rt.Probe)
			}
		}
	case TaskChase:
		ch := t.Chase
		if ch == nil {
			return fmt.Errorf("accesscheck: %s task without Chase payload", t.Kind)
		}
		if len(ch.Arities) == 0 {
			return fmt.Errorf("accesscheck: chase task: no relation arities")
		}
		if ch.Sigma.Rel == "" {
			return fmt.Errorf("accesscheck: chase task: sigma names no relation")
		}
		if ch.StepBudget < 0 {
			return fmt.Errorf("accesscheck: chase task: negative step budget %d", ch.StepBudget)
		}
	default:
		// TaskCheck too: checks run through Check and CheckAnytime.
		return fmt.Errorf("accesscheck: Do runs no %v task", t.Kind)
	}
	return nil
}

// ContainmentReport is the typed TaskContainment result.
type ContainmentReport struct {
	Mode      ContainmentMode
	Contained bool
	// Exact reports an unconditional verdict. UCQ verdicts are always
	// exact; datalog/access refutations are exact, confirmations only when
	// nothing was cut by a bound.
	Exact bool
	// DepthBound is the bound actually used (datalog: unfolding depth;
	// access: path depth).
	DepthBound int
	// ExpansionsChecked counts examined proof-tree expansions (datalog).
	ExpansionsChecked int
	// PathsExplored counts visited path prefixes (access).
	PathsExplored int
	// Counterexample renders the violating canonical database (datalog),
	// empty when contained.
	Counterexample string
	// Witness is the counterexample access path (access mode).
	Witness *Path
	// Formula renders the compiled Example 2.2 AccLTL formula (access).
	Formula string
}

// RelevanceReport is the typed TaskRelevance result.
type RelevanceReport struct {
	// Relevant answers long-term-relevance mode.
	Relevant bool
	// Answer is the maximal answer of Query on the accessible part
	// (accessible-part mode).
	Answer bool
	// Accessible is the computed accessible part (accessible-part mode).
	Accessible *Instance
	// PathsExplored/Depth describe the relevance search (probe mode).
	PathsExplored int
	Depth         int
	// Witness is a path demonstrating relevance (probe mode).
	Witness *Path
	// Formula renders the compiled Example 2.3 formula (probe mode).
	Formula string
}

// ChaseReport is the typed TaskChase result.
type ChaseReport struct {
	// Verdict is the chase outcome as deps spells it: "implied",
	// "not implied", or "unknown (budget exhausted)".
	Verdict string
	// Implied is the headline boolean; Terminated distinguishes a real
	// "not implied" (chase fixpoint reached) from budget exhaustion.
	Implied    bool
	Terminated bool
	// Steps/Tuples/Budget describe the chase run.
	Steps  int
	Tuples int
	Budget int
}

// TaskResult is the shared result envelope every task kind answers with:
// a headline verdict, an exactness bit with cache-admission semantics, the
// engine that ran, wall time, and the kind-specific typed report.
type TaskResult struct {
	Kind TaskKind
	// Verdict is the headline boolean: Satisfiable (check), Contained
	// (containment), Relevant or the maximal answer (relevance), Implied
	// (chase).
	Verdict bool
	// Truncated marks a bound-relative verdict — path/response caps
	// (check, access containment, relevance), a cut unfolding (datalog
	// containment), an exhausted step budget (chase). Truncated results
	// are served but never cached; accesscheck/cache enforces it.
	Truncated bool
	// Engine names the decision procedure that ran.
	Engine string
	// Elapsed is the wall time of the solve.
	Elapsed time.Duration

	// Exactly one of the following is set, matching Kind.
	Check       *Result
	Containment *ContainmentReport
	Relevance   *RelevanceReport
	Chase       *ChaseReport
}

// Do runs one containment, relevance or chase task, decided from its
// payload alone (see the package comment). ctx is honoured throughout every
// kind's search loops.
func (c *Checker) Do(ctx context.Context, t *Task) (*TaskResult, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("accesscheck: Do: %w", err)
	}
	switch t.Kind {
	case TaskContainment:
		return doContainment(ctx, t.Containment)
	case TaskRelevance:
		return doRelevance(ctx, t.Relevance)
	case TaskChase:
		return doChase(ctx, t.Chase)
	default:
		return nil, fmt.Errorf("accesscheck: Do: unknown task kind %v", t.Kind)
	}
}

// Do is the one-shot form: build a throwaway Checker from opts and run the
// task through it.
func Do(ctx context.Context, t *Task, opts ...Option) (*TaskResult, error) {
	c, err := NewChecker(opts...)
	if err != nil {
		return nil, err
	}
	return c.Do(ctx, t)
}

func doContainment(ctx context.Context, ct *ContainmentTask) (*TaskResult, error) {
	start := time.Now()
	out := &TaskResult{Kind: TaskContainment}
	rep := &ContainmentReport{Mode: ct.Mode}
	out.Containment = rep
	switch ct.Mode {
	case ContainUCQ:
		out.Engine = "ucq-homomorphism"
		contained, err := fo.Contains(ct.Q1, ct.Q2)
		if err != nil {
			return nil, err
		}
		rep.Contained = contained
		rep.Exact = true
	case ContainDatalog:
		out.Engine = "datalog-expansion"
		res, err := ct.Program.ContainedInCtx(ctx, ct.Q2, ct.Depth)
		if err != nil {
			return nil, err
		}
		rep.Contained = res.Contained
		rep.Exact = res.Exact
		rep.DepthBound = res.DepthBound
		rep.ExpansionsChecked = res.ExpansionsChecked
		if res.Counterexample != nil {
			rep.Counterexample = renderStructure(res.Counterexample)
		}
	case ContainAccess:
		out.Engine = "accltl-bounded"
		res, err := relevance.ContainedUnderAccessPatternsCtx(ctx, ct.Schema, ct.Q1, ct.Q2, ct.Seed, ct.Depth)
		if err != nil {
			return nil, err
		}
		rep.Contained = res.Contained
		rep.Formula = res.Formula.String()
		if sr := res.Counterexample; sr != nil {
			rep.DepthBound = sr.Depth
			rep.PathsExplored = sr.PathsExplored
			rep.Witness = sr.Witness
			// A counterexample path refutes unconditionally; a confirmed
			// containment is exact only if the bounded search exhausted its
			// space without hitting a cap (and is still depth-relative —
			// Truncated stays the caller's signal for cap-cut searches, the
			// depth bound is in the report).
			rep.Exact = !res.Contained || !(sr.Truncated || sr.ResponsesCapped)
		}
	default:
		return nil, fmt.Errorf("accesscheck: unknown containment mode %v", ct.Mode)
	}
	out.Verdict = rep.Contained
	out.Truncated = !rep.Exact
	out.Elapsed = time.Since(start)
	return out, nil
}

func doRelevance(ctx context.Context, rt *RelevanceTask) (*TaskResult, error) {
	start := time.Now()
	out := &TaskResult{Kind: TaskRelevance}
	rep := &RelevanceReport{}
	out.Relevance = rep
	if rt.Probe != "" {
		out.Engine = "accltl-plus"
		m, _ := rt.Schema.Method(rt.Probe) // Validate checked existence
		res, err := relevance.LongTermRelevant(rt.Schema, m, rt.Binding, rt.Query, relevance.LTROptions{
			Context:  ctx,
			Grounded: rt.Grounded,
			Universe: rt.Universe,
			MaxDepth: rt.MaxDepth,
		})
		if err != nil {
			return nil, err
		}
		rep.Relevant = res.Relevant
		rep.Formula = res.Formula.String()
		if sr := res.Witness; sr != nil {
			rep.PathsExplored = sr.PathsExplored
			rep.Depth = sr.Depth
			rep.Witness = sr.Witness
			out.Truncated = sr.Truncated || sr.ResponsesCapped
		}
		out.Verdict = rep.Relevant
	} else {
		out.Engine = "datalog-fixpoint"
		acc, err := relevance.AccessiblePart(rt.Schema, rt.Hidden, rt.Seed)
		if err != nil {
			return nil, err
		}
		ans, err := relevance.QueryHolds(rt.Query, acc)
		if err != nil {
			return nil, err
		}
		rep.Accessible = acc
		rep.Answer = ans
		// The accessible-part fixpoint is exact: no bound cuts it.
		out.Verdict = ans
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

func doChase(ctx context.Context, ch *ChaseTask) (*TaskResult, error) {
	start := time.Now()
	gamma := deps.Set{FDs: ch.FDs, IDs: ch.IDs}
	verdict, stats, err := deps.Chase(ctx, gamma, ch.Sigma, ch.Arities, ch.StepBudget)
	if err != nil {
		return nil, err
	}
	return &TaskResult{
		Kind:      TaskChase,
		Verdict:   verdict == deps.Implied,
		Truncated: verdict == deps.Unknown,
		Engine:    "chase",
		Elapsed:   time.Since(start),
		Chase: &ChaseReport{
			Verdict:    verdict.String(),
			Implied:    verdict == deps.Implied,
			Terminated: verdict != deps.Unknown,
			Steps:      stats.Steps,
			Tuples:     stats.Tuples,
			Budget:     stats.Budget,
		},
	}, nil
}

// renderStructure prints a counterexample database deterministically:
// predicates sorted by name, tuples in insertion order.
func renderStructure(st *fo.MapStructure) string {
	preds := st.Preds()
	sort.Slice(preds, func(i, j int) bool { return preds[i].Name < preds[j].Name })
	var b strings.Builder
	for _, p := range preds {
		for _, t := range st.TuplesOf(p) {
			if b.Len() > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s%s", p.Name, t.String())
		}
	}
	return b.String()
}
