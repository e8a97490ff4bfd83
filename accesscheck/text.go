package accesscheck

import (
	"fmt"
	"strconv"
	"strings"

	"accltl/internal/accltl"
	"accltl/internal/schema"
)

// MultiFlag is a repeatable string flag (a flag.Value), the shape the
// -rel/-method declarations take on the command line.
type MultiFlag []string

// String renders the accumulated values.
func (m *MultiFlag) String() string { return strings.Join(*m, ";") }

// Set appends one occurrence of the flag.
func (m *MultiFlag) Set(v string) error { *m = append(*m, v); return nil }

// ParseSchema builds a schema from textual declarations: relations as
// "Name:type,type,..." (types int, string, bool) and access methods as
// "Name:Relation:pos,pos,..." where an empty position list declares a free
// scan ("Name:Relation" and "Name:Relation:" are equivalent). Every name
// must be one formula identifier (see ParseFormula): a letter, '_' or '#',
// then letters, digits, '_' or '#'. A formula can then name each relation
// and method, and no two parsed schemas render alike.
func ParseSchema(rels, methods []string) (*Schema, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("accesscheck: ParseSchema: at least one relation declaration is required")
	}
	sch := schema.New()
	for _, decl := range rels {
		if _, err := AddRelation(sch, decl); err != nil {
			return nil, err
		}
	}
	for _, decl := range methods {
		if _, err := AddMethod(sch, decl); err != nil {
			return nil, err
		}
	}
	return sch, nil
}

// AddRelation parses a "Name:type,type,..." declaration and adds the
// relation to the schema.
func AddRelation(sch *Schema, decl string) (*Relation, error) {
	if sch == nil {
		return nil, fmt.Errorf("accesscheck: AddRelation: nil schema")
	}
	parts := strings.SplitN(decl, ":", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("accesscheck: bad relation declaration %q (want Name:type,...)", decl)
	}
	if !accltl.IsIdent(parts[0]) {
		return nil, fmt.Errorf("accesscheck: relation name %q in declaration %q is not an identifier", parts[0], decl)
	}
	var types []schema.Type
	for _, t := range strings.Split(parts[1], ",") {
		switch strings.TrimSpace(t) {
		case "int":
			types = append(types, schema.TypeInt)
		case "string":
			types = append(types, schema.TypeString)
		case "bool":
			types = append(types, schema.TypeBool)
		default:
			return nil, fmt.Errorf("accesscheck: unknown type %q in relation declaration %q", t, decl)
		}
	}
	r, err := schema.NewRelation(parts[0], types...)
	if err != nil {
		return nil, err
	}
	if err := sch.AddRelation(r); err != nil {
		return nil, err
	}
	return r, nil
}

// AddMethod parses a "Name:Relation:pos,pos,..." declaration (empty
// position list = free scan) and adds the access method to the schema.
func AddMethod(sch *Schema, decl string) (*AccessMethod, error) {
	if sch == nil {
		return nil, fmt.Errorf("accesscheck: AddMethod: nil schema")
	}
	parts := strings.Split(decl, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return nil, fmt.Errorf("accesscheck: bad method declaration %q (want Name:Relation:pos,...)", decl)
	}
	if !accltl.IsIdent(parts[0]) {
		return nil, fmt.Errorf("accesscheck: method name %q in declaration %q is not an identifier", parts[0], decl)
	}
	rel, ok := sch.Relation(parts[1])
	if !ok {
		return nil, fmt.Errorf("accesscheck: method %q names unknown relation %q", parts[0], parts[1])
	}
	var inputs []int
	if len(parts) == 3 && strings.TrimSpace(parts[2]) != "" {
		for _, p := range strings.Split(parts[2], ",") {
			n, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, fmt.Errorf("accesscheck: bad position %q in method declaration %q", p, decl)
			}
			inputs = append(inputs, n)
		}
	}
	m, err := schema.NewAccessMethod(parts[0], rel, inputs...)
	if err != nil {
		return nil, err
	}
	if err := sch.AddMethod(m); err != nil {
		return nil, err
	}
	return m, nil
}

// ParseFormula reads an AccLTL formula from the textual syntax (see
// internal/accltl.Parse for the grammar):
//
//	(![exists n,p,s,ph. pre Mobile#(n,p,s,ph)])
//	  U [exists n,s,pc,h. bind AcM1(n) & pre Address(s,pc,n,h)]
func ParseFormula(src string) (Formula, error) { return accltl.Parse(src) }

// MustParseFormula is ParseFormula that panics on error, for compiled-in
// formulas.
func MustParseFormula(src string) Formula {
	f, err := ParseFormula(src)
	if err != nil {
		panic(err)
	}
	return f
}

// ParseSentence reads a bare first-order sentence (the [...] payload
// syntax of ParseFormula).
func ParseSentence(src string) (Sentence, error) { return accltl.ParseFO(src) }

// ParseEngine reads an engine name as printed by Engine.String — "auto",
// "x", "0-acc", "plus", "bounded", "automaton" — the form the server wire
// format and CLI flags use. The empty string means EngineAuto.
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return EngineAuto, nil
	case "x":
		return EngineX, nil
	case "0-acc", "zeroacc", "0acc":
		return EngineZeroAcc, nil
	case "plus":
		return EnginePlus, nil
	case "bounded":
		return EngineBounded, nil
	case "automaton":
		return EngineAutomaton, nil
	default:
		return EngineAuto, fmt.Errorf("accesscheck: unknown engine %q (want auto, x, 0-acc, plus, bounded or automaton)", s)
	}
}

// parseExactSpec interprets the CLI exact-response spec: "" restricts
// nothing, "*" means all methods, otherwise a comma-separated method list.
func parseExactSpec(spec string) (all bool, names []string, err error) {
	spec = strings.TrimSpace(spec)
	switch spec {
	case "":
		return false, nil, nil
	case "*":
		return true, nil, nil
	}
	for _, m := range strings.Split(spec, ",") {
		m = strings.TrimSpace(m)
		if m == "" {
			return false, nil, fmt.Errorf("accesscheck: empty method name in exact spec %q", spec)
		}
		names = append(names, m)
	}
	return false, names, nil
}
