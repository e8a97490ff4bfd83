package accltl

import (
	"strings"
	"testing"

	"accltl/internal/fo"
)

func mustParse(t *testing.T, s string) Formula {
	t.Helper()
	f, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return f
}

func TestParseAtoms(t *testing.T) {
	f := mustParse(t, `[exists x. pre R(x)]`)
	a, ok := f.(Atom)
	if !ok {
		t.Fatalf("got %T", f)
	}
	if got := a.Sentence.String(); !strings.Contains(got, "pre R(") {
		t.Errorf("sentence = %s", got)
	}
}

// TestIdentifiers: the lexer decodes UTF-8, so a name with a non-ASCII
// letter is one identifier, and IsIdent accepts exactly the names the
// lexer reads as one identifier token.
func TestIdentifiers(t *testing.T) {
	for _, name := range []string{"R", "Café", "Mobile#", "_r2", "#t", "Été٣"} {
		if !IsIdent(name) {
			t.Errorf("IsIdent(%q) = false", name)
		}
		f := mustParse(t, "[exists x. pre "+name+"(x)]")
		if got := f.String(); !strings.Contains(got, "pre "+name+"(x)") {
			t.Errorf("%q parses as %s", name, got)
		}
	}
	for _, name := range []string{"", "2R", "R(int); S", "R S", "a-b", "x.y", "R\xe9", "\u00a0R"} {
		if IsIdent(name) {
			t.Errorf("IsIdent(%q) = true", name)
		}
	}
}

func TestParseIntroFormula(t *testing.T) {
	src := `(![exists n,p,s,ph. pre Mobile#(n,p,s,ph)]) U [exists n,s,pc,h. bind AcM1(n) & pre Address(s,pc,n,h)]`
	f := mustParse(t, src)
	u, ok := f.(Until)
	if !ok {
		t.Fatalf("top = %T", f)
	}
	if _, ok := u.L.(Not); !ok {
		t.Errorf("left = %T", u.L)
	}
	info := Classify(f)
	if frag, ok := info.Fragment(); !ok || frag != FragPlus {
		t.Errorf("fragment = %v", frag)
	}
}

func TestParseTemporalOperators(t *testing.T) {
	cases := []struct {
		src  string
		want string // substring of rendering
	}{
		{`F [bind m]`, "U"},
		{`G [bind m]`, "U"}, // G = ¬F¬
		{`X [bind m]`, "X"},
		{`! [bind m]`, "!"},
		{`true`, "true"},
		{`false`, "false"},
		{`[bind m] & [bind n] & [bind o]`, "&"},
		{`[bind m] | [bind n]`, "|"},
	}
	for _, c := range cases {
		f := mustParse(t, c.src)
		if !strings.Contains(f.String(), c.want) {
			t.Errorf("Parse(%q) = %s, want substring %q", c.src, f, c.want)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// & binds tighter than |, which binds tighter than U.
	f := mustParse(t, `[bind a] & [bind b] | [bind c] U [bind d]`)
	u, ok := f.(Until)
	if !ok {
		t.Fatalf("top = %T, want Until", f)
	}
	if _, ok := u.L.(Or); !ok {
		t.Errorf("left of U = %T, want Or", u.L)
	}
	// U is right associative.
	g := mustParse(t, `[bind a] U [bind b] U [bind c]`)
	gu := g.(Until)
	if _, ok := gu.R.(Until); !ok {
		t.Errorf("U not right-associative: %s", g)
	}
}

func TestParseTermKinds(t *testing.T) {
	f := mustParse(t, `[post R("str", 42, #t, -7, x)]`)
	a := f.(Atom).Sentence.(fo.Atom)
	if len(a.Args) != 5 {
		t.Fatalf("args = %d", len(a.Args))
	}
	if a.Args[0].IsVar() || a.Args[0].Value().AsString() != "str" {
		t.Error("string constant wrong")
	}
	if a.Args[1].Value().AsInt() != 42 {
		t.Error("int constant wrong")
	}
	if !a.Args[2].Value().AsBool() {
		t.Error("bool constant wrong")
	}
	if a.Args[3].Value().AsInt() != -7 {
		t.Error("negative int wrong")
	}
	if !a.Args[4].IsVar() || a.Args[4].Name() != "x" {
		t.Error("variable wrong")
	}
}

func TestParseEqualities(t *testing.T) {
	f := mustParse(t, `[exists x,y. pre R(x) & x = y & x != y]`)
	s := f.(Atom).Sentence.String()
	if !strings.Contains(s, "x=y") || !strings.Contains(s, "x!=y") {
		t.Errorf("sentence = %s", s)
	}
}

func TestParseZeroAryBind(t *testing.T) {
	f := mustParse(t, `F [bind AcM1]`)
	info := Classify(f)
	if !info.ZeroAcc {
		t.Error("0-ary bind not zero-acc")
	}
}

func TestParseRoundTripSemantics(t *testing.T) {
	// Parsing the rendering of a constructed formula yields an equivalent
	// classification (renderings are not identical syntax, so compare the
	// feature vector).
	orig := F(Conj(
		Atom{Sentence: fo.Ex([]string{"x"}, fo.Atom{Pred: fo.PostPred("R0"), Args: []fo.Term{fo.Var("x")}})},
		Not{F: Atom{Sentence: fo.Atom{Pred: fo.IsBindPred("m")}}},
	))
	src := `F ([exists x. post R0(x)] & ![bind m])`
	parsed := mustParse(t, src)
	if Classify(orig) != Classify(parsed) {
		t.Errorf("classification differs: %+v vs %+v", Classify(orig), Classify(parsed))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`[`,
		`[pre R(x)`,
		`F`,
		`[exists . pre R(x)]`,
		`[pre R(x) extra]`,
		`[x ~ y]`,
		`[bind]`,
		`[pre (x)]`,
		`(([bind m])`,
		`[exists x pre R(x)]`,
		`[pre R(x,)]`,
		`true garbage`,
	}
	for _, src := range bad {
		if f, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted: %s", src, f)
		}
	}
}

func TestParseFO(t *testing.T) {
	f, err := ParseFO(`exists x,y. pre R(x,y) & x != y`)
	if err != nil {
		t.Fatal(err)
	}
	if !fo.IsPositive(f) || !fo.HasInequality(f) {
		t.Errorf("misparsed: %s", f)
	}
	if _, err := ParseFO(`exists x. pre R(x) ]`); err == nil {
		t.Error("trailing input accepted")
	}
}

func TestParsedFormulaSolvable(t *testing.T) {
	// End-to-end: parse a formula and run it through the solver.
	src := `F [exists x. post R0(x)]`
	f := mustParse(t, src)
	s := chainSchema(t)
	res, err := SolveZeroAcc(f, SolveOptions{Schema: s})
	if err != nil || !res.Satisfiable {
		t.Errorf("parsed formula unsolvable: %v, %v", res.Satisfiable, err)
	}
}
