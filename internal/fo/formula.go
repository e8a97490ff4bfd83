// Package fo implements first-order formulas over a schema-with-accesses
// vocabulary Sch_Acc (Section 2 of the paper): for each schema relation R
// there are copies R_pre and R_post, and for each access method AcM there is
// a predicate IsBind_AcM whose arity is the number of input positions of AcM
// (or 0 in the restricted vocabulary Sch_0-Acc).
//
// The package centres on the positive existential fragment FO∃+ (conjunction,
// disjunction, existential quantification, equality) optionally extended with
// inequalities (FO∃+,≠), because those are the fragments the paper's logics
// embed. Negation is representable in the AST — A-automaton guards need
// negated sentences — but fragment classifiers police where it may occur.
package fo

import (
	"fmt"
	"sort"
	"strings"

	"accltl/internal/instance"
	"accltl/internal/schema"
)

// Stage distinguishes the vocabularies a predicate can come from.
type Stage int

const (
	// Plain is a base-schema predicate R (used by conjunctive queries over
	// ordinary instances and by the Datalog engine).
	Plain Stage = iota
	// Pre is the pre-access copy R_pre of a schema relation.
	Pre
	// Post is the post-access copy R_post of a schema relation.
	Post
	// IsBind is the binding predicate IsBind_AcM of an access method; its
	// name field holds the method name. In the full vocabulary Sch_Acc its
	// arity is the method's number of inputs; in Sch_0-Acc it is 0-ary.
	IsBind
)

// String returns a suffix tag for the stage.
func (s Stage) String() string {
	switch s {
	case Plain:
		return ""
	case Pre:
		return "pre"
	case Post:
		return "post"
	case IsBind:
		return "isbind"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Pred identifies a predicate of the vocabulary: a schema relation at a
// stage, a binding predicate, or a plain predicate (for Datalog /
// conjunctive queries over base instances). Pred is comparable.
type Pred struct {
	// Name is the relation name (for Plain/Pre/Post) or the access method
	// name (for IsBind).
	Name string
	// Stage says which copy of the vocabulary the predicate belongs to.
	Stage Stage
}

// String renders the predicate the way the formula parser reads it, e.g.
// "pre Mobile#", "post R" or "bind AcM1", and a plain predicate as its bare
// name. Distinct predicates render distinctly ("post R" is not the plain
// "Rpost"), so a formula's rendering, which fingerprints hash, names its
// atoms unambiguously.
func (p Pred) String() string {
	switch p.Stage {
	case Plain:
		return p.Name
	case Pre:
		return "pre " + p.Name
	case Post:
		return "post " + p.Name
	case IsBind:
		return "bind " + p.Name
	default:
		return p.Name + "?" + p.Stage.String()
	}
}

// PlainPred, PrePred, PostPred and IsBindPred are convenience constructors.
func PlainPred(rel string) Pred   { return Pred{Name: rel, Stage: Plain} }
func PrePred(rel string) Pred     { return Pred{Name: rel, Stage: Pre} }
func PostPred(rel string) Pred    { return Pred{Name: rel, Stage: Post} }
func IsBindPred(meth string) Pred { return Pred{Name: meth, Stage: IsBind} }

// Term is a variable or a constant.
type Term struct {
	isVar bool
	name  string
	val   instance.Value
}

// Var returns a variable term.
func Var(name string) Term { return Term{isVar: true, name: name} }

// Const returns a constant term.
func Const(v instance.Value) Term { return Term{val: v} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.isVar }

// Name returns the variable name (meaningful only when IsVar).
func (t Term) Name() string { return t.name }

// Value returns the constant value (meaningful only when !IsVar).
func (t Term) Value() instance.Value { return t.val }

// String renders the term the way the formula parser reads it: a
// variable by its name, a boolean constant as #t or #f (a bare "true" in
// term position reads as a variable), and a string constant between plain
// quotes, since the parser reads string literals without escapes. A string
// holding a quote, which no parsed formula carries, is Go-quoted instead,
// so distinct constants still render distinctly.
func (t Term) String() string {
	switch {
	case t.isVar:
		return t.name
	case t.val.Kind() == schema.TypeBool && t.val.AsBool():
		return "#t"
	case t.val.Kind() == schema.TypeBool:
		return "#f"
	case t.val.Kind() == schema.TypeString && !strings.Contains(t.val.AsString(), `"`):
		return `"` + t.val.AsString() + `"`
	default:
		return t.val.String()
	}
}

// Formula is a first-order formula over Sch_Acc. Implementations: Atom, Eq,
// Neq, And, Or, Not, Exists, Truth.
type Formula interface {
	fmt.Stringer
	isFormula()
}

// Truth is the boolean constant true (Val=true) or false (Val=false).
type Truth struct{ Val bool }

// Atom is a relational atom P(t1,...,tk).
type Atom struct {
	Pred Pred
	Args []Term
}

// Eq is the equality atom l = r.
type Eq struct{ L, R Term }

// Neq is the inequality atom l ≠ r.
type Neq struct{ L, R Term }

// And is an n-ary conjunction. An empty conjunction is true.
type And struct{ Conj []Formula }

// Or is an n-ary disjunction. An empty disjunction is false.
type Or struct{ Disj []Formula }

// Not is negation. Positive fragments forbid it; A-automaton guards allow it
// applied to closed positive sentences.
type Not struct{ F Formula }

// Exists is existential quantification over one or more variables.
type Exists struct {
	Vars []string
	Body Formula
}

func (Truth) isFormula()  {}
func (Atom) isFormula()   {}
func (Eq) isFormula()     {}
func (Neq) isFormula()    {}
func (And) isFormula()    {}
func (Or) isFormula()     {}
func (Not) isFormula()    {}
func (Exists) isFormula() {}

// String renders the formula in a conventional ASCII syntax.
func (f Truth) String() string {
	if f.Val {
		return "true"
	}
	return "false"
}

func (f Atom) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.Pred.String() + "(" + strings.Join(parts, ",") + ")"
}

func (f Eq) String() string  { return f.L.String() + "=" + f.R.String() }
func (f Neq) String() string { return f.L.String() + "!=" + f.R.String() }

func (f And) String() string {
	if len(f.Conj) == 0 {
		return "true"
	}
	parts := make([]string, len(f.Conj))
	for i, c := range f.Conj {
		parts[i] = operand(c)
	}
	return "(" + strings.Join(parts, " & ") + ")"
}

func (f Or) String() string {
	if len(f.Disj) == 0 {
		return "false"
	}
	parts := make([]string, len(f.Disj))
	for i, d := range f.Disj {
		parts[i] = operand(d)
	}
	return "(" + strings.Join(parts, " | ") + ")"
}

// String parenthesizes a negated quantifier, as operand does, in one
// concatenation: automata render their negated guards on every search.
func (f Not) String() string {
	if _, ok := f.F.(Exists); ok {
		return "!(" + f.F.String() + ")"
	}
	return "!" + f.F.String()
}

func (f Exists) String() string {
	return "exists " + strings.Join(f.Vars, ",") + ". " + f.Body.String()
}

// operand renders f as the operand of a connective. A quantifier's body
// reaches as far right as the parser reads, so a quantifier operand is
// parenthesized: "(exists x. A) & B" is not "exists x. (A & B)", and
// "!exists x. A" does not parse.
func operand(f Formula) string {
	if _, ok := f.(Exists); ok {
		return "(" + f.String() + ")"
	}
	return f.String()
}

// Conj builds a conjunction, flattening nested Ands and dropping trivial
// truths; it returns Truth{true} for the empty case.
func Conj(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch g := f.(type) {
		case Truth:
			if !g.Val {
				return Truth{Val: false}
			}
		case And:
			out = append(out, g.Conj...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return Truth{Val: true}
	case 1:
		return out[0]
	default:
		return And{Conj: out}
	}
}

// Disj builds a disjunction, flattening nested Ors; it returns Truth{false}
// for the empty case.
func Disj(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch g := f.(type) {
		case Truth:
			if g.Val {
				return Truth{Val: true}
			}
		case Or:
			out = append(out, g.Disj...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return Truth{Val: false}
	case 1:
		return out[0]
	default:
		return Or{Disj: out}
	}
}

// Ex wraps a body in an existential quantifier (no-op for zero variables).
func Ex(vars []string, body Formula) Formula {
	if len(vars) == 0 {
		return body
	}
	return Exists{Vars: vars, Body: body}
}

// FreeVars returns the free variables of f in sorted order.
func FreeVars(f Formula) []string {
	seen := make(map[string]bool)
	collectFree(f, make(map[string]bool), seen)
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func collectFree(f Formula, bound, free map[string]bool) {
	switch g := f.(type) {
	case Truth:
	case Atom:
		for _, t := range g.Args {
			if t.IsVar() && !bound[t.Name()] {
				free[t.Name()] = true
			}
		}
	case Eq:
		for _, t := range []Term{g.L, g.R} {
			if t.IsVar() && !bound[t.Name()] {
				free[t.Name()] = true
			}
		}
	case Neq:
		for _, t := range []Term{g.L, g.R} {
			if t.IsVar() && !bound[t.Name()] {
				free[t.Name()] = true
			}
		}
	case And:
		for _, c := range g.Conj {
			collectFree(c, bound, free)
		}
	case Or:
		for _, d := range g.Disj {
			collectFree(d, bound, free)
		}
	case Not:
		collectFree(g.F, bound, free)
	case Exists:
		nb := make(map[string]bool, len(bound)+len(g.Vars))
		for v := range bound {
			nb[v] = true
		}
		for _, v := range g.Vars {
			nb[v] = true
		}
		collectFree(g.Body, nb, free)
	}
}

// IsSentence reports whether f has no free variables.
func IsSentence(f Formula) bool { return len(FreeVars(f)) == 0 }

// Constants returns every constant value occurring in f, deduplicated and
// sorted.
func Constants(f Formula) []instance.Value {
	seen := make(map[instance.Value]bool)
	collectConsts(f, seen)
	out := make([]instance.Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func collectConsts(f Formula, seen map[instance.Value]bool) {
	switch g := f.(type) {
	case Atom:
		for _, t := range g.Args {
			if !t.IsVar() {
				seen[t.Value()] = true
			}
		}
	case Eq:
		for _, t := range []Term{g.L, g.R} {
			if !t.IsVar() {
				seen[t.Value()] = true
			}
		}
	case Neq:
		for _, t := range []Term{g.L, g.R} {
			if !t.IsVar() {
				seen[t.Value()] = true
			}
		}
	case And:
		for _, c := range g.Conj {
			collectConsts(c, seen)
		}
	case Or:
		for _, d := range g.Disj {
			collectConsts(d, seen)
		}
	case Not:
		collectConsts(g.F, seen)
	case Exists:
		collectConsts(g.Body, seen)
	}
}

// Preds returns every predicate occurring in f, deduplicated, in first-seen
// order.
func Preds(f Formula) []Pred {
	seen := make(map[Pred]bool)
	var out []Pred
	var walk func(Formula)
	walk = func(f Formula) {
		switch g := f.(type) {
		case Atom:
			if !seen[g.Pred] {
				seen[g.Pred] = true
				out = append(out, g.Pred)
			}
		case And:
			for _, c := range g.Conj {
				walk(c)
			}
		case Or:
			for _, d := range g.Disj {
				walk(d)
			}
		case Not:
			walk(g.F)
		case Exists:
			walk(g.Body)
		}
	}
	walk(f)
	return out
}

// Size returns the number of AST nodes of f; a standard formula-size measure
// used in complexity-shaped benchmarks.
func Size(f Formula) int {
	switch g := f.(type) {
	case Truth, Atom, Eq, Neq:
		return 1
	case And:
		n := 1
		for _, c := range g.Conj {
			n += Size(c)
		}
		return n
	case Or:
		n := 1
		for _, d := range g.Disj {
			n += Size(d)
		}
		return n
	case Not:
		return 1 + Size(g.F)
	case Exists:
		return 1 + Size(g.Body)
	default:
		return 1
	}
}

// Substitute replaces free occurrences of variables per the given
// assignment, returning a new formula. Bound variables shadow.
func Substitute(f Formula, env map[string]instance.Value) Formula {
	return substitute(f, env)
}

func substTerm(t Term, env map[string]instance.Value) Term {
	if t.IsVar() {
		if v, ok := env[t.Name()]; ok {
			return Const(v)
		}
	}
	return t
}

func substitute(f Formula, env map[string]instance.Value) Formula {
	switch g := f.(type) {
	case Truth:
		return g
	case Atom:
		args := make([]Term, len(g.Args))
		for i, t := range g.Args {
			args[i] = substTerm(t, env)
		}
		return Atom{Pred: g.Pred, Args: args}
	case Eq:
		return Eq{L: substTerm(g.L, env), R: substTerm(g.R, env)}
	case Neq:
		return Neq{L: substTerm(g.L, env), R: substTerm(g.R, env)}
	case And:
		cs := make([]Formula, len(g.Conj))
		for i, c := range g.Conj {
			cs[i] = substitute(c, env)
		}
		return And{Conj: cs}
	case Or:
		ds := make([]Formula, len(g.Disj))
		for i, d := range g.Disj {
			ds[i] = substitute(d, env)
		}
		return Or{Disj: ds}
	case Not:
		return Not{F: substitute(g.F, env)}
	case Exists:
		// Shadow bound variables.
		shadowed := false
		for _, v := range g.Vars {
			if _, ok := env[v]; ok {
				shadowed = true
				break
			}
		}
		if !shadowed {
			return Exists{Vars: g.Vars, Body: substitute(g.Body, env)}
		}
		nenv := make(map[string]instance.Value, len(env))
		for k, v := range env {
			nenv[k] = v
		}
		for _, v := range g.Vars {
			delete(nenv, v)
		}
		return Exists{Vars: g.Vars, Body: substitute(g.Body, nenv)}
	default:
		return f
	}
}

// RenameVars applies a variable renaming to all (free and bound) variables.
// Used when standardizing queries apart.
func RenameVars(f Formula, ren map[string]string) Formula {
	renTerm := func(t Term) Term {
		if t.IsVar() {
			if n, ok := ren[t.Name()]; ok {
				return Var(n)
			}
		}
		return t
	}
	switch g := f.(type) {
	case Truth:
		return g
	case Atom:
		args := make([]Term, len(g.Args))
		for i, t := range g.Args {
			args[i] = renTerm(t)
		}
		return Atom{Pred: g.Pred, Args: args}
	case Eq:
		return Eq{L: renTerm(g.L), R: renTerm(g.R)}
	case Neq:
		return Neq{L: renTerm(g.L), R: renTerm(g.R)}
	case And:
		cs := make([]Formula, len(g.Conj))
		for i, c := range g.Conj {
			cs[i] = RenameVars(c, ren)
		}
		return And{Conj: cs}
	case Or:
		ds := make([]Formula, len(g.Disj))
		for i, d := range g.Disj {
			ds[i] = RenameVars(d, ren)
		}
		return Or{Disj: ds}
	case Not:
		return Not{F: RenameVars(g.F, ren)}
	case Exists:
		vars := make([]string, len(g.Vars))
		for i, v := range g.Vars {
			if n, ok := ren[v]; ok {
				vars[i] = n
			} else {
				vars[i] = v
			}
		}
		return Exists{Vars: vars, Body: RenameVars(g.Body, ren)}
	default:
		return f
	}
}
