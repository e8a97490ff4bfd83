package accesscheck_test

import (
	"strings"
	"testing"

	"accltl/accesscheck"
)

// FuzzParseFormula: ParseFormula reads the formula text of every check
// request, and a formula's rendering is what fingerprints hash. Whatever
// the input, parsing must not panic, and an accepted formula must render
// as text that parses again to a formula with the same rendering — the
// parser reads back what it wrote, so two formulas a cache keys apart
// never share a rendering by accident of the syntax. Seeds live in
// testdata/fuzz/FuzzParseFormula.
func FuzzParseFormula(f *testing.F) {
	f.Add(`(![exists n,p,s,ph. pre Mobile#(n,p,s,ph)]) U [exists n,s,pc,h. bind AcM1(n) & pre Address(s,pc,n,h)]`)
	f.Fuzz(func(t *testing.T, src string) {
		g, err := accesscheck.ParseFormula(src)
		if err != nil {
			return
		}
		text := g.String()
		again, err := accesscheck.ParseFormula(text)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", src, text, err)
		}
		if again.String() != text {
			t.Fatalf("%q renders as %q, which renders as %q", src, text, again.String())
		}
	})
}

// FuzzParseSchema: ParseSchema reads the relation and method declarations
// of every check request. Each input holds one declaration per line;
// whatever they say, parsing must not panic, and every name an accepted
// schema holds must read as one identifier in a formula — so a formula
// can name it, and the schema's rendering (what fingerprints hash) cannot
// be another schema's. Seeds live in testdata/fuzz/FuzzParseSchema.
func FuzzParseSchema(f *testing.F) {
	f.Add("Mobile#:string,string,string,int\nAddress:string,string,string,int", "AcM1:Mobile#:0\nAcM2:Address:0,1")
	f.Fuzz(func(t *testing.T, rels, methods string) {
		sch, err := accesscheck.ParseSchema(strings.Split(rels, "\n"), strings.Split(methods, "\n"))
		if err != nil {
			return
		}
		var atoms []string
		for _, r := range sch.Relations() {
			atoms = append(atoms, "pre "+r.Name()+"(x)")
		}
		for _, m := range sch.Methods() {
			atoms = append(atoms, "bind "+m.Name()+"(x)")
		}
		for _, atom := range atoms {
			g, err := accesscheck.ParseFormula("[exists x. " + atom + "]")
			if err != nil {
				t.Fatalf("schema %s: %q does not parse: %v", sch, atom, err)
			}
			if !strings.Contains(g.String(), atom) {
				t.Fatalf("schema %s: %q parses as %s", sch, atom, g)
			}
		}
	})
}
