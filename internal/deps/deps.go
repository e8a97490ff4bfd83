// Package deps implements the integrity-constraint machinery of the paper:
// functional dependencies, inclusion dependencies and disjointness
// constraints (Examples 2.3–2.4), satisfaction checks over instances, the
// chase-based implication test whose undecidability for FD+ID drives
// Theorems 3.1, 5.2 and 5.3, and the executable reduction constructions
// from dependency implication into AccLTL satisfiability.
package deps

import (
	"fmt"
	"strconv"
	"strings"

	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/schema"
)

// FD is a functional dependency R: Source → Target (positions 0-based).
type FD struct {
	Rel    string
	Source []int
	Target int
}

// String renders the FD.
func (d FD) String() string {
	return fmt.Sprintf("%s: %s -> %d", d.Rel, positions(d.Source), d.Target)
}

// positions renders a position list comma-separated, the way the task
// front-ends read it.
func positions(ps []int) string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = strconv.Itoa(p)
	}
	return strings.Join(out, ",")
}

// Validate checks positions against the schema.
func (d FD) Validate(sch *schema.Schema) error {
	r, ok := sch.Relation(d.Rel)
	if !ok {
		return fmt.Errorf("deps: FD over unknown relation %s", d.Rel)
	}
	for _, p := range d.Source {
		if p < 0 || p >= r.Arity() {
			return fmt.Errorf("deps: FD %s source position %d out of range", d, p)
		}
	}
	if d.Target < 0 || d.Target >= r.Arity() {
		return fmt.Errorf("deps: FD %s target out of range", d)
	}
	return nil
}

// HoldsOn reports whether the instance satisfies the FD.
func (d FD) HoldsOn(in *instance.Instance) bool {
	seen := make(map[string]instance.Value)
	for _, t := range in.Tuples(d.Rel) {
		key := sourceKey(t, d.Source)
		if prev, ok := seen[key]; ok {
			if prev != t[d.Target] {
				return false
			}
			continue
		}
		seen[key] = t[d.Target]
	}
	return true
}

func sourceKey(t instance.Tuple, src []int) string {
	parts := make([]string, len(src))
	for i, p := range src {
		parts[i] = t[p].Key()
	}
	return strings.Join(parts, "\x1f")
}

// ViolationSentence is the Example 2.4 pattern: an FO∃+,≠ sentence over the
// given vocabulary copy that holds iff two tuples agree on the source
// positions and differ on the target.
func (d FD) ViolationSentence(sch *schema.Schema, stage fo.Stage) (fo.Formula, error) {
	r, ok := sch.Relation(d.Rel)
	if !ok {
		return nil, fmt.Errorf("deps: unknown relation %s", d.Rel)
	}
	n := r.Arity()
	xs := make([]fo.Term, n)
	ys := make([]fo.Term, n)
	var vars []string
	for i := 0; i < n; i++ {
		xv, yv := fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i)
		xs[i] = fo.Var(xv)
		ys[i] = fo.Var(yv)
		vars = append(vars, xv, yv)
	}
	conj := []fo.Formula{
		fo.Atom{Pred: fo.Pred{Name: d.Rel, Stage: stage}, Args: xs},
		fo.Atom{Pred: fo.Pred{Name: d.Rel, Stage: stage}, Args: ys},
	}
	for _, p := range d.Source {
		conj = append(conj, fo.Eq{L: xs[p], R: ys[p]})
	}
	conj = append(conj, fo.Neq{L: xs[d.Target], R: ys[d.Target]})
	return fo.Ex(vars, fo.Conj(conj...)), nil
}

// ID is an inclusion dependency SrcRel[SrcPos] ⊆ DstRel[DstPos].
type ID struct {
	SrcRel string
	SrcPos []int
	DstRel string
	DstPos []int
}

// String renders the ID as "R[0,1] ⊆ S[2,3]", which accesscheck.ParseID
// reads back.
func (d ID) String() string {
	return fmt.Sprintf("%s[%s] ⊆ %s[%s]", d.SrcRel, positions(d.SrcPos), d.DstRel, positions(d.DstPos))
}

// Validate checks shape against the schema.
func (d ID) Validate(sch *schema.Schema) error {
	if len(d.SrcPos) != len(d.DstPos) || len(d.SrcPos) == 0 {
		return fmt.Errorf("deps: ID %s has mismatched position lists", d)
	}
	src, ok := sch.Relation(d.SrcRel)
	if !ok {
		return fmt.Errorf("deps: ID over unknown relation %s", d.SrcRel)
	}
	dst, ok := sch.Relation(d.DstRel)
	if !ok {
		return fmt.Errorf("deps: ID over unknown relation %s", d.DstRel)
	}
	for _, p := range d.SrcPos {
		if p < 0 || p >= src.Arity() {
			return fmt.Errorf("deps: ID %s source position out of range", d)
		}
	}
	for _, p := range d.DstPos {
		if p < 0 || p >= dst.Arity() {
			return fmt.Errorf("deps: ID %s destination position out of range", d)
		}
	}
	return nil
}

// HoldsOn reports whether the instance satisfies the ID.
func (d ID) HoldsOn(in *instance.Instance) bool {
	for _, t := range in.Tuples(d.SrcRel) {
		found := false
		for _, u := range in.Tuples(d.DstRel) {
			match := true
			for i := range d.SrcPos {
				if t[d.SrcPos[i]] != u[d.DstPos[i]] {
					match = false
					break
				}
			}
			if match {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Disjointness states that the values at position PosA of RelA never occur
// at position PosB of RelB (the "names never overlap streets" constraint).
type Disjointness struct {
	RelA string
	PosA int
	RelB string
	PosB int
}

// String renders the constraint.
func (d Disjointness) String() string {
	return fmt.Sprintf("%s[%d] ∩ %s[%d] = ∅", d.RelA, d.PosA, d.RelB, d.PosB)
}

// Validate checks positions against the schema.
func (d Disjointness) Validate(sch *schema.Schema) error {
	ra, ok := sch.Relation(d.RelA)
	if !ok {
		return fmt.Errorf("deps: disjointness over unknown relation %s", d.RelA)
	}
	rb, ok := sch.Relation(d.RelB)
	if !ok {
		return fmt.Errorf("deps: disjointness over unknown relation %s", d.RelB)
	}
	if d.PosA < 0 || d.PosA >= ra.Arity() || d.PosB < 0 || d.PosB >= rb.Arity() {
		return fmt.Errorf("deps: disjointness %s positions out of range", d)
	}
	return nil
}

// HoldsOn reports whether the instance satisfies the constraint.
func (d Disjointness) HoldsOn(in *instance.Instance) bool {
	seen := make(map[instance.Value]bool)
	for _, t := range in.Tuples(d.RelA) {
		seen[t[d.PosA]] = true
	}
	for _, t := range in.Tuples(d.RelB) {
		if seen[t[d.PosB]] {
			return false
		}
	}
	return true
}

// ViolationSentence is the FO∃+ sentence (no inequalities needed) that
// holds iff a value occurs at both positions — disjointness is expressible
// in every fragment of Table 1 (the DjC column).
func (d Disjointness) ViolationSentence(sch *schema.Schema, stage fo.Stage) (fo.Formula, error) {
	ra, ok := sch.Relation(d.RelA)
	if !ok {
		return nil, fmt.Errorf("deps: unknown relation %s", d.RelA)
	}
	rb, ok := sch.Relation(d.RelB)
	if !ok {
		return nil, fmt.Errorf("deps: unknown relation %s", d.RelB)
	}
	var vars []string
	xs := make([]fo.Term, ra.Arity())
	for i := range xs {
		v := fmt.Sprintf("a%d", i)
		xs[i] = fo.Var(v)
		vars = append(vars, v)
	}
	ys := make([]fo.Term, rb.Arity())
	for i := range ys {
		v := fmt.Sprintf("b%d", i)
		ys[i] = fo.Var(v)
		vars = append(vars, v)
	}
	ys[d.PosB] = xs[d.PosA] // shared variable realizes the overlap
	return fo.Ex(vars, fo.Conj(
		fo.Atom{Pred: fo.Pred{Name: d.RelA, Stage: stage}, Args: xs},
		fo.Atom{Pred: fo.Pred{Name: d.RelB, Stage: stage}, Args: ys},
	)), nil
}

// Set is a collection of dependencies over one schema.
type Set struct {
	FDs          []FD
	IDs          []ID
	Disjointness []Disjointness
}

// Validate validates every member.
func (s Set) Validate(sch *schema.Schema) error {
	for _, d := range s.FDs {
		if err := d.Validate(sch); err != nil {
			return err
		}
	}
	for _, d := range s.IDs {
		if err := d.Validate(sch); err != nil {
			return err
		}
	}
	for _, d := range s.Disjointness {
		if err := d.Validate(sch); err != nil {
			return err
		}
	}
	return nil
}

// HoldsOn reports whether the instance satisfies every dependency.
func (s Set) HoldsOn(in *instance.Instance) bool {
	for _, d := range s.FDs {
		if !d.HoldsOn(in) {
			return false
		}
	}
	for _, d := range s.IDs {
		if !d.HoldsOn(in) {
			return false
		}
	}
	for _, d := range s.Disjointness {
		if !d.HoldsOn(in) {
			return false
		}
	}
	return true
}
