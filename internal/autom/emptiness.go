package autom

import (
	"sort"

	"accltl/internal/accltl"
	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/lts"
)

// EmptinessOptions is accltl.SolveOptions, the options both product
// searches take. The name is kept because the serving benchmark
// (perfbench/trace.go) builds emptiness options under it.
type EmptinessOptions = accltl.SolveOptions

// IsEmpty decides language emptiness with the direct bounded product
// search: the LTS of the schema is explored over a universe assembled from
// the guards' positive obligations while simulating the automaton's state
// set; a path reaching an accepting state is a witness. The result's
// Satisfiable means the language is non-empty, with an accepted witness.
// "Non-empty" verdicts are unconditional (the witness is checked); "empty"
// verdicts are relative to the depth bound, which suffices for automata
// whose guards' obligations each need at most one revealing access — in
// particular for every automaton compiled from AccLTL+ by this repository.
// The path restrictions of opts (grounded, idempotent, exact) apply per the
// sanity conditions of Section 2 ("The same holds if accesses are
// restricted to be exact or idempotent", Theorem 4.6).
//
// It prepares the search (Prepare) and runs it once, on opts.Shards with
// opts.Parallelism walkers: an lts.Product search whose control is the
// automaton's state set (see search.go).
func (a *Automaton) IsEmpty(opts accltl.SolveOptions) (accltl.SolveResult, error) {
	p, err := a.Prepare(opts)
	if err != nil {
		return accltl.SolveResult{}, err
	}
	return p.Search(opts.Context, opts.Parallelism, opts.Shards)
}

// emptinessLTSOptions is accltl.ProductSearch for the emptiness search,
// over the automaton's own schema: its guards derive the witness universe
// and put their constants in the binding pool, and the default depth bound
// is states + distinct guards + 2.
func (a *Automaton) emptinessLTSOptions(opts accltl.SolveOptions) (lts.Options, int, error) {
	guards := a.Guards()
	opts.Schema = a.Schema
	return accltl.ProductSearch(opts, guards, guardConstants(guards), a.NumStates+len(guards)+2)
}

// stateSetKey renders a state set canonically.
func stateSetKey(states map[int]bool) string {
	ids := make([]int, 0, len(states))
	for s := range states {
		ids = append(ids, s)
	}
	sort.Ints(ids)
	out := make([]byte, 0, len(ids)*3)
	for _, s := range ids {
		out = append(out, byte(s), byte(s>>8), ',')
	}
	return string(out)
}

// guardConstants collects the constants of guards, each once.
func guardConstants(guards []fo.Formula) []instance.Value {
	var out []instance.Value
	seen := make(map[instance.Value]bool)
	for _, g := range guards {
		for _, v := range fo.Constants(g) {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}
