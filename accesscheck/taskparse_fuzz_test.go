package accesscheck_test

import (
	"strings"
	"testing"

	"accltl/accesscheck"
)

// The task front-ends read the chase, containment and relevance payloads
// of every task request. Whatever the input, none may panic, and an
// accepted FD or ID must render as text that parses back to the same
// rendering: chase fingerprints hash those renderings. Each input holds one
// rule, fact or value per line. Seeds live in testdata/fuzz.

func FuzzParseFD(f *testing.F) {
	f.Add("R:0,1->2")
	f.Fuzz(func(t *testing.T, src string) {
		fd, err := accesscheck.ParseFD(src)
		if err != nil {
			return
		}
		text := fd.String()
		again, err := accesscheck.ParseFD(text)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", src, text, err)
		}
		if again.String() != text {
			t.Fatalf("%q renders as %q, which renders as %q", src, text, again.String())
		}
	})
}

func FuzzParseID(f *testing.F) {
	f.Add("R[0,1]<=S[2,3]")
	f.Fuzz(func(t *testing.T, src string) {
		id, err := accesscheck.ParseID(src)
		if err != nil {
			return
		}
		text := id.String()
		again, err := accesscheck.ParseID(text)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", src, text, err)
		}
		if again.String() != text {
			t.Fatalf("%q renders as %q, which renders as %q", src, text, again.String())
		}
	})
}

func FuzzParseArity(f *testing.F) {
	f.Add("R:3")
	f.Fuzz(func(t *testing.T, src string) {
		_, _, _ = accesscheck.ParseArity(src)
	})
}

func FuzzParseProgram(f *testing.F) {
	f.Add("Path(x,y) :- Edge(x,y)\nPath(x,z) :- Path(x,y), Edge(y,z)\nGoal() :- Path(x,x)", "Goal")
	f.Fuzz(func(t *testing.T, rules, goal string) {
		if p, err := accesscheck.ParseProgram(strings.Split(rules, "\n"), goal); err == nil {
			_ = p.String()
		}
	})
}

// taskSchema is the schema the fact and binding targets read against: one
// column of every type.
func taskSchema(t testing.TB) *accesscheck.Schema {
	t.Helper()
	sch, err := accesscheck.ParseSchema([]string{"R:int,string,bool"}, []string{"m:R:0,1,2"})
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func FuzzParseInstance(f *testing.F) {
	sch := taskSchema(f)
	f.Add("R(1,'a',true)\nR(-2,\"b,c\",false)")
	f.Fuzz(func(t *testing.T, facts string) {
		if in, err := accesscheck.ParseInstance(sch, strings.Split(facts, "\n")); err == nil {
			_ = in.Fingerprint()
		}
	})
}

func FuzzParseBinding(f *testing.F) {
	m, _ := taskSchema(f).Method("m")
	f.Add("7\n'x'\ntrue")
	f.Fuzz(func(t *testing.T, vals string) {
		_, _ = accesscheck.ParseBinding(m, strings.Split(vals, "\n"))
	})
}
