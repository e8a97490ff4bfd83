package fo

import (
	"fmt"
	"sort"
	"strings"

	"accltl/internal/instance"
)

// CQ is a conjunctive query in normal form: an existentially closed
// conjunction of relational atoms, equalities and inequalities. Free
// variables are those listed in Free (used when CQs serve as non-boolean
// queries, e.g. in the relevance package); a boolean CQ has Free == nil.
type CQ struct {
	Free  []string
	Atoms []Atom
	Eqs   []Eq
	Neqs  []Neq
}

// String renders the CQ.
func (q CQ) String() string {
	var parts []string
	for _, a := range q.Atoms {
		parts = append(parts, a.String())
	}
	for _, e := range q.Eqs {
		parts = append(parts, e.String())
	}
	for _, n := range q.Neqs {
		parts = append(parts, n.String())
	}
	body := strings.Join(parts, " & ")
	if len(q.Free) == 0 {
		return "{" + body + "}"
	}
	return "(" + strings.Join(q.Free, ",") + "){" + body + "}"
}

// Vars returns all variables of the CQ (free and quantified), sorted.
func (q CQ) Vars() []string {
	seen := make(map[string]bool)
	add := func(t Term) {
		if t.IsVar() {
			seen[t.Name()] = true
		}
	}
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			add(t)
		}
	}
	for _, e := range q.Eqs {
		add(e.L)
		add(e.R)
	}
	for _, n := range q.Neqs {
		add(n.L)
		add(n.R)
	}
	for _, v := range q.Free {
		seen[v] = true
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Formula converts the CQ back into a Formula, existentially quantifying
// all non-free variables.
func (q CQ) Formula() Formula {
	var conj []Formula
	for _, a := range q.Atoms {
		conj = append(conj, a)
	}
	for _, e := range q.Eqs {
		conj = append(conj, e)
	}
	for _, n := range q.Neqs {
		conj = append(conj, n)
	}
	body := Conj(conj...)
	free := make(map[string]bool, len(q.Free))
	for _, v := range q.Free {
		free[v] = true
	}
	var ex []string
	for _, v := range q.Vars() {
		if !free[v] {
			ex = append(ex, v)
		}
	}
	return Ex(ex, body)
}

// HasInequalities reports whether the CQ carries ≠ atoms.
func (q CQ) HasInequalities() bool { return len(q.Neqs) > 0 }

// ucqCounter generates fresh variable names during normalization.
type ucqCounter int

func (c *ucqCounter) fresh() string {
	*c++
	return fmt.Sprintf("_u%d", int(*c))
}

// ToUCQ converts a positive (possibly ≠-bearing) formula into an equivalent
// union of conjunctive queries. Quantified variables are renamed apart.
// It returns an error if the formula contains negation.
func ToUCQ(f Formula) ([]CQ, error) {
	if !IsPositive(f) {
		return nil, fmt.Errorf("fo: ToUCQ of non-positive formula %s", f)
	}
	var c ucqCounter
	free := FreeVars(f)
	disjuncts := dnf(standardizeApart(f, &c, make(map[string]string)))
	out := make([]CQ, 0, len(disjuncts))
	for _, d := range disjuncts {
		cq := CQ{Free: append([]string(nil), free...)}
		for _, lit := range d {
			switch g := lit.(type) {
			case Atom:
				cq.Atoms = append(cq.Atoms, g)
			case Eq:
				cq.Eqs = append(cq.Eqs, g)
			case Neq:
				cq.Neqs = append(cq.Neqs, g)
			case Truth:
				if !g.Val {
					cq = CQ{} // unreachable: dnf drops false branches
				}
			}
		}
		out = append(out, cq)
	}
	return out, nil
}

// standardizeApart renames quantified variables to fresh names so that
// pulling quantifiers out during DNF conversion cannot capture.
func standardizeApart(f Formula, c *ucqCounter, ren map[string]string) Formula {
	switch g := f.(type) {
	case Truth:
		return g
	case Atom:
		return RenameVars(g, ren).(Atom)
	case Eq:
		return RenameVars(g, ren)
	case Neq:
		return RenameVars(g, ren)
	case And:
		cs := make([]Formula, len(g.Conj))
		for i, x := range g.Conj {
			cs[i] = standardizeApart(x, c, ren)
		}
		return And{Conj: cs}
	case Or:
		ds := make([]Formula, len(g.Disj))
		for i, x := range g.Disj {
			ds[i] = standardizeApart(x, c, ren)
		}
		return Or{Disj: ds}
	case Exists:
		nren := make(map[string]string, len(ren)+len(g.Vars))
		for k, v := range ren {
			nren[k] = v
		}
		nvars := make([]string, len(g.Vars))
		for i, v := range g.Vars {
			nv := c.fresh()
			nren[v] = nv
			nvars[i] = nv
		}
		return Exists{Vars: nvars, Body: standardizeApart(g.Body, c, nren)}
	default:
		return f
	}
}

// dnf converts a standardized positive formula into a list of literal lists
// (disjunctive normal form), dropping Exists nodes (their variables are now
// globally unique, so existential closure is implicit).
func dnf(f Formula) [][]Formula {
	switch g := f.(type) {
	case Truth:
		if g.Val {
			return [][]Formula{{}}
		}
		return nil
	case Atom, Eq, Neq:
		return [][]Formula{{f}}
	case Exists:
		return dnf(g.Body)
	case And:
		acc := [][]Formula{{}}
		for _, c := range g.Conj {
			sub := dnf(c)
			var next [][]Formula
			for _, a := range acc {
				for _, s := range sub {
					merged := make([]Formula, 0, len(a)+len(s))
					merged = append(merged, a...)
					merged = append(merged, s...)
					next = append(next, merged)
				}
			}
			acc = next
		}
		return acc
	case Or:
		var out [][]Formula
		for _, d := range g.Disj {
			out = append(out, dnf(d)...)
		}
		return out
	default:
		return nil
	}
}

// CanonicalDB freezes the CQ into its canonical database: each variable is
// mapped to a distinct fresh labelled-null value, constants map to
// themselves, and every atom becomes a fact. Equalities merge variables
// first; if an equality forces two distinct constants the CQ is
// unsatisfiable and ok is false. Inequalities are checked against the
// frozen assignment (distinct nulls are distinct, so a ≠ between two
// different variables always holds after freezing; v ≠ v fails).
func (q CQ) CanonicalDB() (st *MapStructure, frozen map[string]instance.Value, ok bool) {
	// Union-find over terms to apply equalities.
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b string) { parent[find(a)] = find(b) }

	key := func(t Term) string {
		if t.IsVar() {
			return "v:" + t.Name()
		}
		return "c:" + t.Value().Key()
	}
	constOf := make(map[string]instance.Value)
	noteConst := func(t Term) {
		if !t.IsVar() {
			constOf[key(t)] = t.Value()
		}
	}
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			find(key(t))
			noteConst(t)
		}
	}
	for _, e := range q.Eqs {
		find(key(e.L))
		find(key(e.R))
		noteConst(e.L)
		noteConst(e.R)
		union(key(e.L), key(e.R))
	}
	for _, n := range q.Neqs {
		find(key(n.L))
		find(key(n.R))
		noteConst(n.L)
		noteConst(n.R)
	}
	// Determine representative values: a class containing a constant takes
	// that constant; two distinct constants in one class → unsatisfiable.
	classConst := make(map[string]instance.Value)
	for k, v := range constOf {
		r := find(k)
		if have, dup := classConst[r]; dup {
			if have != v {
				return nil, nil, false
			}
			continue
		}
		classConst[r] = v
	}
	// Fresh null values for constant-free classes. Use string-typed nulls
	// with reserved names; evaluation compares values only for equality, so
	// their type never matters.
	frozen = make(map[string]instance.Value)
	nullIdx := 0
	valueOf := func(t Term) instance.Value {
		r := find(key(t))
		if v, ok := classConst[r]; ok {
			return v
		}
		v, ok := frozen["@"+r]
		if !ok {
			v = instance.Str(fmt.Sprintf("_null%d", nullIdx))
			nullIdx++
			frozen["@"+r] = v
		}
		return v
	}
	st = NewMapStructure()
	for _, a := range q.Atoms {
		tup := make(instance.Tuple, len(a.Args))
		for i, t := range a.Args {
			tup[i] = valueOf(t)
		}
		st.Add(a.Pred, tup)
	}
	// Check inequalities under the frozen assignment.
	for _, n := range q.Neqs {
		if valueOf(n.L) == valueOf(n.R) {
			return nil, nil, false
		}
	}
	// Expose variable → value map under variable names.
	out := make(map[string]instance.Value)
	for _, v := range q.Vars() {
		out[v] = valueOf(Var(v))
	}
	return st, out, true
}

// Holds reports whether the boolean CQ holds in st: it evaluates
// q.Formula() through Eval, the package's one evaluator. A CQ with free
// variables is an open formula, which Eval refuses, so it does not hold.
func (q CQ) Holds(st Structure) bool {
	ok, err := Eval(q.Formula(), st)
	return err == nil && ok
}

// ContainedIn decides CQ containment q ⊆ p for boolean CQs without
// inequalities: freeze q into its canonical database and check whether p
// holds in it, i.e. has a homomorphism into it (Chandra–Merlin). It is
// UCQContains with one CQ a side, and refuses a non-boolean or ≠-bearing
// p even when q is unsatisfiable.
func (q CQ) ContainedIn(p CQ) (bool, error) {
	if err := ucqOperand(p, "right"); err != nil {
		return false, err
	}
	return UCQContains([]CQ{q}, []CQ{p})
}

// UCQContains decides containment of a UCQ in a UCQ of boolean CQs
// without inequalities: every disjunct of qs must be contained in the union
// ps, i.e. the canonical database of each q ∈ qs must satisfy some p ∈ ps.
// A non-boolean or ≠-bearing CQ it reaches is an error.
func UCQContains(qs, ps []CQ) (bool, error) {
	for _, q := range qs {
		if err := ucqOperand(q, "left"); err != nil {
			return false, err
		}
		st, _, ok := q.CanonicalDB()
		if !ok {
			continue
		}
		found := false
		for _, p := range ps {
			if err := ucqOperand(p, "right"); err != nil {
				return false, err
			}
			if p.Holds(st) {
				found = true
				break
			}
		}
		if !found {
			return false, nil
		}
	}
	return true, nil
}

// ucqOperand refuses a CQ containment cannot decide over: a non-boolean
// or ≠-bearing one.
func ucqOperand(q CQ, side string) error {
	if len(q.Free) != 0 {
		return fmt.Errorf("fo: containment of a non-boolean CQ on the %s; close it first", side)
	}
	if q.HasInequalities() {
		return fmt.Errorf("fo: containment does not handle inequalities on the %s", side)
	}
	return nil
}

// Contains decides containment between positive sentences without
// inequalities: f ⊆ g iff every model of f is a model of g, decided via UCQ
// conversion and Chandra–Merlin.
func Contains(f, g Formula) (bool, error) {
	if err := CheckPositiveSentence(f); err != nil {
		return false, err
	}
	if err := CheckPositiveSentence(g); err != nil {
		return false, err
	}
	qf, err := ToUCQ(f)
	if err != nil {
		return false, err
	}
	qg, err := ToUCQ(g)
	if err != nil {
		return false, err
	}
	return UCQContains(qf, qg)
}

// Equivalent decides logical equivalence of positive sentences without
// inequalities.
func Equivalent(f, g Formula) (bool, error) {
	fg, err := Contains(f, g)
	if err != nil || !fg {
		return false, err
	}
	return Contains(g, f)
}
