package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"accltl/accesscheck/server"
	"accltl/internal/workload"
)

// Route paths of the four task kinds.
const (
	routeCheck       = "/v1/check"
	routeContainment = "/v1/containment"
	routeRelevance   = "/v1/relevance"
	routeChase       = "/v1/chase"
)

// verdict is the answer a request must get: the headline boolean of its
// route (satisfiable, contained, relevant or implied) and whether the
// answer must be exact. Every fixture used by the workloads is exact.
type verdict struct {
	Value bool
	Exact bool
}

// fixture is one pinned question. Exactly one of the request payloads is
// set, matching route. names lists the identifiers renaming suffixes.
type fixture struct {
	name        string
	route       string
	check       *server.CheckRequest
	containment *server.ContainmentRequest
	relevance   *server.RelevanceRequest
	chase       *server.ChaseRequest
	names       []string
	want        verdict
}

// request is one generated request: a renamed fixture as the body the
// server receives, plus what the answer must say.
type request struct {
	Fixture string
	Route   string
	Body    []byte
	// Key identifies the question: equal keys mean equal bodies, so equal
	// fingerprints on the server.
	Key  string
	Want verdict
	// Fresh marks the first request of its key in the stream (counting the
	// set-up phase).
	Fresh bool
}

// phone schema of the paper's running example, in ParseSchema syntax.
var (
	phoneRels    = []string{"Mobile#:string,string,string,int", "Address:string,string,string,int"}
	phoneMethods = []string{"AcM1:Mobile#:0", "AcM2:Address:0,1"}
	phoneNames   = []string{"Mobile#", "Address", "AcM1", "AcM2"}
)

const (
	mobilePre    = "[exists n,p,s,ph. pre Mobile#(n,p,s,ph)]"
	introFormula = "(!" + mobilePre + ") U [exists n,s,pc,h. bind AcM1(n) & pre Address(s,pc,n,h)]"
)

// wideBinary are the binary relations the wide family adds after Mobile#
// and Address, in order.
var wideBinary = []string{"Email", "Phone", "Fax", "Pager", "Telex"}

// wideFixture is the budget-storm fixture of scripts/fabric_smoke.sh
// widened to k relations (4 ≤ k ≤ 7): an unsatisfiable contradiction whose
// bounded depth-4 search must visit every path, so its cost grows with
// the relation count and it splits into many root shards. Each binary
// relation has one access method per position; the first two binary
// relations carry two atoms in the formula, as in the smoke fixture.
func wideFixture(k int) fixture {
	rels := append([]string(nil), phoneRels...)
	methods := append([]string(nil), phoneMethods...)
	names := append([]string(nil), phoneNames...)
	formula := mobilePre + " & (!" + mobilePre + ")"
	for j, rel := range wideBinary[:k-2] {
		rels = append(rels, rel+":string,string")
		m0, m1 := fmt.Sprintf("Get%sBy0", rel), fmt.Sprintf("Get%sBy1", rel)
		methods = append(methods, m0+":"+rel+":0", m1+":"+rel+":1")
		names = append(names, rel, m0, m1)
		atoms := 1
		if j < 2 {
			atoms = 2
		}
		for a := 0; a < atoms; a++ {
			formula += fmt.Sprintf(" & [exists x%d%d,y%d%d. pre %s(x%d%d,y%d%d)]", j, a, j, a, rel, j, a, j, a)
		}
	}
	return fixture{
		name:  fmt.Sprintf("wide%d", k),
		route: routeCheck,
		check: &server.CheckRequest{
			Relations: rels,
			Methods:   methods,
			Formula:   formula,
			Options:   &server.CheckOptions{Engine: "bounded", MaxDepth: 4},
		},
		names: names,
		want:  verdict{Value: false, Exact: true},
	}
}

func phoneCheck(name, formula string, opts *server.CheckOptions, sat bool) fixture {
	return fixture{
		name:  name,
		route: routeCheck,
		check: &server.CheckRequest{Relations: phoneRels, Methods: phoneMethods, Formula: formula, Options: opts},
		names: phoneNames,
		want:  verdict{Value: sat, Exact: true},
	}
}

// chainCheck is a check over the dataflow chain of length k
// (workload.Chain in text form).
func chainCheck(name string, k int, formula string, opts *server.CheckOptions, sat bool) fixture {
	var rels, methods, names []string
	for i := 0; i < k; i++ {
		r := fmt.Sprintf("R%d", i)
		rels = append(rels, r+":int")
		m := fmt.Sprintf("chkR%d", i)
		if i == 0 {
			m = "scanR0"
			methods = append(methods, m+":"+r)
		} else {
			methods = append(methods, m+":"+r+":0")
		}
		names = append(names, r, m)
	}
	for i := 0; i+1 < k; i++ {
		l, m := fmt.Sprintf("Link%d", i), fmt.Sprintf("followLink%d", i)
		rels = append(rels, l+":int,int")
		methods = append(methods, m+":"+l+":0")
		names = append(names, l, m)
	}
	return fixture{
		name:  name,
		route: routeCheck,
		check: &server.CheckRequest{Relations: rels, Methods: methods, Formula: formula, Options: opts},
		names: names,
		want:  verdict{Value: sat, Exact: true},
	}
}

func revealed(rel string) string { return "[exists x. post " + rel + "(x)]" }

// checkFixtures are the small check families: together they reach the
// 0-Acc, X, AccLTL+, automaton and bounded engines.
func checkFixtures() []fixture {
	auto := &server.CheckOptions{Engine: "automaton"}
	return []fixture{
		phoneCheck("phone-intro", introFormula, nil, true),
		phoneCheck("phone-until", "(!"+mobilePre+") U [exists n. bind AcM1(n)]", nil, true),
		phoneCheck("phone-contra", mobilePre+" & (!"+mobilePre+")", nil, false),
		phoneCheck("phone-never-bind", "(F [exists n. bind AcM1(n)]) & (G ![exists n. bind AcM1(n)])",
			&server.CheckOptions{Engine: "bounded", MaxDepth: 4}, false),
		phoneCheck("phone-intro-automaton", introFormula, auto, true),
		chainCheck("chain3-reach", 3, "F "+revealed("R2"), nil, true),
		chainCheck("chain4-nested", 4, "F ("+revealed("R0")+" & F ("+revealed("R1")+" & F "+revealed("R2")+"))", nil, true),
		chainCheck("chain4-xtower", 4, "X ("+revealed("R0")+" & X ("+revealed("R1")+" & X "+revealed("R2")+"))", nil, true),
		chainCheck("chain3-reach-automaton", 3, "F "+revealed("R2"), auto, true),
	}
}

// taskFixtures are internal/workload's containment and relevance
// scenarios whose pinned answer is exact, plus two terminating chase
// questions.
func taskFixtures() []fixture {
	var out []fixture
	for _, sc := range workload.ContainmentScenarios() {
		if !sc.WantExact {
			continue // depth-relative: never cached, so no use in a hot set
		}
		sc := sc
		names := []string{"Edge", "Path", "Goal"}
		names = append(names, declNames(sc.Relations, sc.Methods)...)
		out = append(out, fixture{
			name:  "containment-" + sc.Name,
			route: routeContainment,
			containment: &server.ContainmentRequest{
				Mode: sc.Mode, Q1: sc.Q1, Q2: sc.Q2, Rules: sc.Rules, Goal: sc.Goal,
				Relations: sc.Relations, Methods: sc.Methods, Seed: sc.Seed, Depth: sc.Depth,
			},
			names: names,
			want:  verdict{Value: sc.WantContained, Exact: true},
		})
	}
	for _, sc := range workload.RelevanceScenarios() {
		if sc.Probe != "" {
			continue // long-term relevance probes solve for ~1 s each
		}
		sc := sc
		out = append(out, fixture{
			name:  "relevance-" + sc.Name,
			route: routeRelevance,
			relevance: &server.RelevanceRequest{
				Relations: sc.Relations, Methods: sc.Methods, Probe: sc.Probe, Binding: sc.Binding,
				Query: sc.Query, Hidden: sc.Hidden, Seed: sc.Seed, MaxDepth: sc.MaxDepth,
			},
			names: declNames(sc.Relations, sc.Methods),
			want:  verdict{Value: sc.WantVerdict, Exact: true},
		})
	}
	out = append(out,
		fixture{
			name:  "chase-fd-transitive",
			route: routeChase,
			chase: &server.ChaseRequest{Arities: []string{"R:3"}, FDs: []string{"R:0->1", "R:1->2"}, Sigma: "R:0->2"},
			names: []string{"R"},
			want:  verdict{Value: true, Exact: true},
		},
		fixture{
			name:  "chase-fd-not-implied",
			route: routeChase,
			chase: &server.ChaseRequest{Arities: []string{"R:3"}, FDs: []string{"R:0->1"}, Sigma: "R:0->2"},
			names: []string{"R"},
			want:  verdict{Value: false, Exact: true},
		},
	)
	return out
}

// declNames extracts the relation and method names of ParseSchema
// declarations ("Name:..." → "Name").
func declNames(rels, methods []string) []string {
	var out []string
	for _, d := range append(append([]string(nil), rels...), methods...) {
		if i := strings.IndexByte(d, ':'); i > 0 {
			out = append(out, d[:i])
		}
	}
	return out
}

// renamer suffixes every listed identifier with "_<suffix>". It rewrites
// whole identifier tokens (letters, digits, '_' and '#', the formula
// lexer's identifier alphabet) outside double-quoted constants, so values
// such as "Jones" and variables are left alone. A suffix shared by every
// name keeps the verdict and the explored path count: the search only
// ever compares names for equality or sorts them, and names of one
// fixture differ before the suffix begins.
type renamer struct {
	names  map[string]bool
	suffix string
}

func newRenamer(names []string, suffix string) renamer {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return renamer{names: m, suffix: suffix}
}

func isIdentByte(c byte) bool {
	return c == '_' || c == '#' || ('0' <= c && c <= '9') || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func (r renamer) str(s string) string {
	if r.suffix == "" || s == "" {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '"':
			j := i + 1
			for j < len(s) && s[j] != '"' {
				if s[j] == '\\' {
					j++
				}
				j++
			}
			if j < len(s) {
				j++
			}
			b.WriteString(s[i:j])
			i = j
		case isIdentByte(c):
			j := i
			for j < len(s) && isIdentByte(s[j]) {
				j++
			}
			tok := s[i:j]
			b.WriteString(tok)
			if r.names[tok] {
				b.WriteString("_")
				b.WriteString(r.suffix)
			}
			i = j
		default:
			b.WriteByte(c)
			i++
		}
	}
	return b.String()
}

func (r renamer) strs(ss []string) []string {
	if ss == nil {
		return nil
	}
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = r.str(s)
	}
	return out
}

// renamed returns the fixture's request payload with every identifier
// suffixed; an empty suffix returns the original payload.
func (f fixture) renamed(suffix string) any {
	r := newRenamer(f.names, suffix)
	switch {
	case f.check != nil:
		c := *f.check
		c.Relations, c.Methods, c.Formula = r.strs(c.Relations), r.strs(c.Methods), r.str(c.Formula)
		return &c
	case f.containment != nil:
		c := *f.containment
		c.Q1, c.Q2, c.Goal = r.str(c.Q1), r.str(c.Q2), r.str(c.Goal)
		c.Rules, c.Relations, c.Methods, c.Seed = r.strs(c.Rules), r.strs(c.Relations), r.strs(c.Methods), r.strs(c.Seed)
		return &c
	case f.relevance != nil:
		c := *f.relevance
		c.Relations, c.Methods, c.Hidden, c.Seed = r.strs(c.Relations), r.strs(c.Methods), r.strs(c.Hidden), r.strs(c.Seed)
		c.Probe, c.Query = r.str(c.Probe), r.str(c.Query)
		return &c
	default:
		c := *f.chase
		c.Arities, c.FDs, c.IDs, c.Sigma = r.strs(c.Arities), r.strs(c.FDs), r.strs(c.IDs), r.str(c.Sigma)
		return &c
	}
}

// request builds the renamed request with the given unique suffix.
func (f fixture) request(suffix string) request {
	body, err := json.Marshal(f.renamed(suffix))
	if err != nil {
		panic(err) // plain structs of strings always marshal
	}
	return request{Fixture: f.name, Route: f.route, Body: body, Key: f.name + "#" + suffix, Want: f.want}
}
