package fo

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"accltl/internal/instance"
	"accltl/internal/schema"
)

// Structure is a finite relational structure over the Sch_Acc vocabulary:
// what a single transition of an access path induces (the structure M(t_i)
// of Section 2), or a plain instance viewed through Plain predicates.
type Structure interface {
	// Holds reports whether the predicate contains the tuple.
	Holds(p Pred, t instance.Tuple) bool
	// TuplesOf returns all tuples of the predicate (deterministic order).
	TuplesOf(p Pred) []instance.Tuple
	// Domain returns the active domain of the structure: every value
	// occurring in any predicate.
	Domain() []instance.Value
}

// MapStructure is a simple in-memory Structure backed by maps. It is the
// canonical-database representation used by containment checks, and handy
// in tests.
type MapStructure struct {
	rels map[Pred]map[string]instance.Tuple
	dom  map[instance.Value]bool
}

// NewMapStructure returns an empty structure.
func NewMapStructure() *MapStructure {
	return &MapStructure{
		rels: make(map[Pred]map[string]instance.Tuple),
		dom:  make(map[instance.Value]bool),
	}
}

// Add inserts a tuple into predicate p.
func (m *MapStructure) Add(p Pred, t instance.Tuple) {
	rel := m.rels[p]
	if rel == nil {
		rel = make(map[string]instance.Tuple)
		m.rels[p] = rel
	}
	rel[t.Key()] = t.Clone()
	for _, v := range t {
		m.dom[v] = true
	}
}

// Holds implements Structure.
func (m *MapStructure) Holds(p Pred, t instance.Tuple) bool {
	rel := m.rels[p]
	if rel == nil {
		return false
	}
	_, ok := rel[t.Key()]
	return ok
}

// TuplesOf implements Structure.
func (m *MapStructure) TuplesOf(p Pred) []instance.Tuple {
	rel := m.rels[p]
	if len(rel) == 0 {
		return nil
	}
	out := make([]instance.Tuple, 0, len(rel))
	for _, t := range rel {
		out = append(out, t)
	}
	sortTuples(out)
	return out
}

// Domain implements Structure.
func (m *MapStructure) Domain() []instance.Value {
	out := make([]instance.Value, 0, len(m.dom))
	for v := range m.dom {
		out = append(out, v)
	}
	sortValues(out)
	return out
}

// Preds returns the predicates with at least one tuple.
func (m *MapStructure) Preds() []Pred {
	out := make([]Pred, 0, len(m.rels))
	for p, rel := range m.rels {
		if len(rel) > 0 {
			out = append(out, p)
		}
	}
	sortPreds(out)
	return out
}

// Size returns the total number of tuples.
func (m *MapStructure) Size() int {
	n := 0
	for _, rel := range m.rels {
		n += len(rel)
	}
	return n
}

func sortTuples(ts []instance.Tuple) {
	sortSlice(len(ts), func(i, j int) bool { return ts[i].Less(ts[j]) }, func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
}

func sortValues(vs []instance.Value) {
	sortSlice(len(vs), func(i, j int) bool { return vs[i].Less(vs[j]) }, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
}

func sortPreds(ps []Pred) {
	sortSlice(len(ps), func(i, j int) bool {
		if ps[i].Stage != ps[j].Stage {
			return ps[i].Stage < ps[j].Stage
		}
		return ps[i].Name < ps[j].Name
	}, func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
}

// sortSlice is a tiny insertion sort avoiding repeated sort.Slice closures
// allocation in hot paths; n is small throughout this package's uses.
func sortSlice(n int, less func(i, j int) bool, swap func(i, j int)) {
	for i := 1; i < n; i++ {
		for j := i; j > 0 && less(j, j-1); j-- {
			swap(j, j-1)
		}
	}
}

// Eval decides whether the sentence f holds in st. Quantifiers range over
// the structure's active domain extended with the constants of f and a small
// reserve of fresh values per datatype; for positive existential formulas
// with equality and inequality this extension is complete (a fresh witness
// is needed only to satisfy ≠ against all current values, and one fresh
// value per quantified variable suffices).
//
// Eval returns an error when f has free variables. It is Prepare followed
// by Prepared.Eval; a caller evaluating one sentence on many structures
// should prepare it once.
func Eval(f Formula, st Structure) (bool, error) {
	p, err := Prepare(f)
	if err != nil {
		return false, err
	}
	return p.Eval(st), nil
}

// Prepared is a sentence compiled for repeated evaluation. Closedness is
// checked once; every variable occurrence is resolved to a slot owned by
// its binding quantifier, so a nested quantifier that reuses a name ranges
// over its own candidates and leaves the outer binding untouched; and each
// ∃ carries its search plan, computed once: the generator atoms — positive
// atoms conjunctive at the top of its body — that bind its variables by
// matching tuples (a join, not a cross product), followed by the variables
// no generator atom mentions, which range over the quantification domain.
// That domain (active domain, constants, fresh reserve) is built lazily,
// at most once per evaluation and only when such a variable is reached, so
// generator-bound sentences never ask the structure for its domain.
//
// A Prepared is immutable and safe for concurrent use. Each evaluation
// takes its slot environment and tuple buffer from a package-level pool
// and clears them before returning them, so evaluating a generator-bound
// sentence on a structure that does not allocate allocates nothing.
type Prepared struct {
	root   node
	nslots int
	// arity is the widest atom: the size of the per-evaluation tuple
	// buffer atoms are checked through.
	arity int
	// consts and fresh feed the quantification domain: the sentence's
	// constants and its quantified-variable count (the fresh reserve).
	consts []instance.Value
	fresh  int
}

// Prepare compiles the sentence f for repeated evaluation. It returns an
// error when f has free variables.
func Prepare(f Formula) (*Prepared, error) {
	p, free := compile(f)
	if len(free) != 0 {
		return nil, fmt.Errorf("fo: Eval of open formula %s (free vars %v)", f, free)
	}
	return p, nil
}

// evaluators recycles evaluation state across calls and goroutines, so an
// evaluation that never needs the quantification domain allocates nothing.
var evaluators = sync.Pool{New: func() any { return new(evaluator) }}

// Eval decides whether the prepared sentence holds in st.
func (p *Prepared) Eval(st Structure) bool {
	ev := evaluators.Get().(*evaluator)
	n := p.nslots + p.arity
	if cap(ev.buf) < n {
		ev.buf = make([]instance.Value, n)
	}
	buf := ev.buf[:n]
	ev.p, ev.st = p, st
	ev.env, ev.tup = buf[:p.nslots], instance.Tuple(buf[p.nslots:])
	ok := ev.holds(p.root)
	// Values hold strings: clear everything the evaluation touched so the
	// pool pins neither the structure nor its payloads.
	clear(buf)
	ev.p, ev.st, ev.env, ev.tup, ev.dom, ev.domBuilt = nil, nil, nil, nil, nil, false
	evaluators.Put(ev)
	return ok
}

// Compiled formula nodes. Variables are slots into the evaluation's
// environment; a term with slot < 0 is the constant val.
type (
	node any

	term struct {
		slot int
		val  instance.Value
	}
	atomNode struct {
		pred Pred
		args []term
	}
	cmpNode struct {
		l, r term
		neq  bool
	}
	andNode   []node
	orNode    []node
	notNode   struct{ f node }
	truthNode bool

	// existsNode binds its variables step by step, then checks its body.
	existsNode struct {
		steps []step
		body  node
	}
	// step is one move of an ∃'s search plan. An atom step (ops non-nil)
	// matches the tuples of pred position by position; a domain step
	// (ops nil) ranges slot over the quantification domain.
	step struct {
		slot int
		pred Pred
		ops  []op
		// foreign marks an atom step with a position bound by a nested
		// quantifier: distinct tuples can then bind the same values, so
		// repeats are skipped.
		foreign bool
	}
	op struct {
		kind opKind
		slot int
		val  instance.Value
	}
	opKind uint8
)

const (
	opSkip  opKind = iota // bound by a nested quantifier: matches anything
	opConst               // constant: must equal val
	opCheck               // bound before this position: must equal env[slot]
	opBind                // this step binds slot to the tuple's value
)

// compiler resolves variable names to slots in one pass over the formula.
type compiler struct {
	p       *Prepared
	scope   map[string]int
	unbound []string
}

// compile prepares f and returns the names it could not resolve, sorted
// and deduplicated: f's free variables.
func compile(f Formula) (*Prepared, []string) {
	c := compiler{p: &Prepared{}, scope: make(map[string]int)}
	c.p.root = c.node(f)
	slices.Sort(c.unbound)
	return c.p, slices.Compact(c.unbound)
}

func (c *compiler) term(t Term) term {
	if !t.IsVar() {
		if !slices.Contains(c.p.consts, t.Value()) {
			c.p.consts = append(c.p.consts, t.Value())
		}
		return term{slot: -1, val: t.Value()}
	}
	slot, ok := c.scope[t.Name()]
	if !ok {
		c.unbound = append(c.unbound, t.Name())
		return term{slot: -1}
	}
	return term{slot: slot}
}

func (c *compiler) node(f Formula) node {
	switch g := f.(type) {
	case Truth:
		return truthNode(g.Val)
	case Atom:
		a := &atomNode{pred: g.Pred, args: make([]term, len(g.Args))}
		for i, t := range g.Args {
			a.args[i] = c.term(t)
		}
		if len(a.args) > c.p.arity {
			c.p.arity = len(a.args)
		}
		return a
	case Eq:
		return &cmpNode{l: c.term(g.L), r: c.term(g.R)}
	case Neq:
		return &cmpNode{l: c.term(g.L), r: c.term(g.R), neq: true}
	case And:
		out := make(andNode, len(g.Conj))
		for i, x := range g.Conj {
			out[i] = c.node(x)
		}
		return out
	case Or:
		out := make(orNode, len(g.Disj))
		for i, x := range g.Disj {
			out[i] = c.node(x)
		}
		return out
	case Not:
		return &notNode{f: c.node(g.F)}
	case Exists:
		// The quantifier's slots are [lo, hi), one per distinct name; its
		// body's nested quantifiers take slots from hi upward, enclosing ones
		// hold slots below lo.
		lo := c.p.nslots
		type saved struct {
			name  string
			slot  int
			bound bool
		}
		var outer []saved
		for _, v := range g.Vars {
			if slot, ok := c.scope[v]; ok && slot >= lo {
				continue // ∃x,x binds x once
			}
			sv := saved{name: v}
			sv.slot, sv.bound = c.scope[v]
			outer = append(outer, sv)
			c.scope[v] = c.p.nslots
			c.p.nslots++
		}
		hi := c.p.nslots
		c.p.fresh += len(g.Vars)
		body := c.node(g.Body)
		for _, sv := range outer {
			if sv.bound {
				c.scope[sv.name] = sv.slot
			} else {
				delete(c.scope, sv.name)
			}
		}
		return &existsNode{steps: plan(lo, hi, body), body: body}
	default:
		return truthNode(false)
	}
}

// plan lays out the search of the quantifier owning slots [lo, hi): one
// atom step per generator atom that binds a variable no earlier step bound,
// then one domain step per variable no generator atom mentions. Generator
// atoms are complete for their variables — any satisfying assignment makes
// each of them true, so its values occur in a matching tuple — which is
// why the plan needs the domain only for the rest.
func plan(lo, hi int, body node) []step {
	covered := make([]bool, hi-lo)
	var steps []step
	for _, a := range generators(body, nil) {
		binds := false
		for _, t := range a.args {
			if t.slot >= lo && t.slot < hi && !covered[t.slot-lo] {
				binds = true
			}
		}
		if !binds {
			continue
		}
		s := step{pred: a.pred, ops: make([]op, len(a.args))}
		for i, t := range a.args {
			switch {
			case t.slot < 0:
				s.ops[i] = op{kind: opConst, val: t.val}
			case t.slot >= hi:
				s.ops[i] = op{kind: opSkip}
				s.foreign = true
			case t.slot < lo || covered[t.slot-lo]:
				s.ops[i] = op{kind: opCheck, slot: t.slot}
			default:
				s.ops[i] = op{kind: opBind, slot: t.slot}
				covered[t.slot-lo] = true
			}
		}
		steps = append(steps, s)
	}
	for slot := lo; slot < hi; slot++ {
		if !covered[slot-lo] {
			steps = append(steps, step{slot: slot})
		}
	}
	return steps
}

// generators collects the atoms occurring conjunctively at the top of n,
// looking through nested quantifiers (whose own slots the plan skips).
func generators(n node, out []*atomNode) []*atomNode {
	switch g := n.(type) {
	case *atomNode:
		out = append(out, g)
	case andNode:
		for _, x := range g {
			out = generators(x, out)
		}
	case *existsNode:
		out = generators(g.body, out)
	}
	return out
}

// evaluator is the state of one evaluation: the slot environment, the
// tuple buffer atoms are checked through, and the lazily built domain. env
// and tup are carved out of buf, which outlives the evaluation in the pool.
type evaluator struct {
	p        *Prepared
	st       Structure
	env      []instance.Value
	tup      instance.Tuple
	dom      []instance.Value
	domBuilt bool
	buf      []instance.Value
}

func (ev *evaluator) value(t term) instance.Value {
	if t.slot < 0 {
		return t.val
	}
	return ev.env[t.slot]
}

func (ev *evaluator) holds(n node) bool {
	switch g := n.(type) {
	case truthNode:
		return bool(g)
	case *atomNode:
		tup := ev.tup[:len(g.args)]
		for i, a := range g.args {
			tup[i] = ev.value(a)
		}
		return ev.st.Holds(g.pred, tup)
	case *cmpNode:
		return (ev.value(g.l) == ev.value(g.r)) != g.neq
	case andNode:
		for _, x := range g {
			if !ev.holds(x) {
				return false
			}
		}
		return true
	case orNode:
		for _, x := range g {
			if ev.holds(x) {
				return true
			}
		}
		return false
	case *notNode:
		return !ev.holds(g.f)
	case *existsNode:
		return ev.search(g, 0)
	default:
		return false
	}
}

// search runs the ∃'s plan from step i and checks the body under each
// complete assignment, stopping at the first that satisfies it.
func (ev *evaluator) search(x *existsNode, i int) bool {
	if i == len(x.steps) {
		return ev.holds(x.body)
	}
	s := &x.steps[i]
	if s.ops == nil {
		for _, v := range ev.domain() {
			ev.env[s.slot] = v
			if ev.search(x, i+1) {
				return true
			}
		}
		return false
	}
	ts := ev.st.TuplesOf(s.pred)
	for j, t := range ts {
		if !ev.match(s.ops, t) || s.foreign && repeated(s.ops, ts[:j], t) {
			continue
		}
		if ev.search(x, i+1) {
			return true
		}
	}
	return false
}

// match unifies a tuple with an atom step, binding the step's slots.
func (ev *evaluator) match(ops []op, t instance.Tuple) bool {
	if len(t) != len(ops) {
		return false
	}
	for i, o := range ops {
		switch o.kind {
		case opConst:
			if t[i] != o.val {
				return false
			}
		case opCheck:
			if t[i] != ev.env[o.slot] {
				return false
			}
		case opBind:
			ev.env[o.slot] = t[i]
		}
	}
	return true
}

// repeated reports whether an earlier tuple agrees with t on every
// position the step does not skip, i.e. already produced t's bindings.
func repeated(ops []op, earlier []instance.Tuple, t instance.Tuple) bool {
	for _, u := range earlier {
		if len(u) != len(t) {
			continue
		}
		same := true
		for i, o := range ops {
			if o.kind != opSkip && u[i] != t[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// domain returns the quantification domain, building it on first use.
func (ev *evaluator) domain() []instance.Value {
	if !ev.domBuilt {
		ev.dom = ev.p.domain(ev.st)
		ev.domBuilt = true
	}
	return ev.dom
}

// domain assembles the quantification domain: active domain, sentence
// constants, plus fresh values per type for ≠-witnesses.
func (p *Prepared) domain(st Structure) []instance.Value {
	seen := make(map[instance.Value]bool)
	var dom []instance.Value
	add := func(v instance.Value) {
		if !seen[v] {
			seen[v] = true
			dom = append(dom, v)
		}
	}
	for _, v := range st.Domain() {
		add(v)
	}
	for _, v := range p.consts {
		add(v)
	}
	// Fresh reserve: as many fresh values per kind as quantified variables
	// — one fresh int and string per variable is enough for any chain of
	// inequalities.
	if p.fresh > 0 {
		// Fresh ints: pick values below any present (min-1 downward).
		var minInt int64 = 0
		for _, v := range dom {
			if v.Kind() == schema.TypeInt && v.AsInt() < minInt {
				minInt = v.AsInt()
			}
		}
		for i := 1; i <= p.fresh; i++ {
			add(instance.Int(minInt - int64(i) - 1000000007))
		}
		for i := 0; i < p.fresh; i++ {
			add(instance.Str("$fresh" + strconv.Itoa(i)))
		}
		add(instance.Bool(true))
		add(instance.Bool(false))
	}
	return dom
}
