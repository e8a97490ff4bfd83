package lts

import (
	"accltl/internal/access"
	"accltl/internal/instance"
	"accltl/internal/schema"
)

// Successors enumerates the one-step transitions available from a
// configuration: every access (method × binding from the pool) with every
// well-formed response drawn from the universe. It is the branching-time
// counterpart of Explore — the CTL_EX model checker of package branching
// walks the LTS through it. Like Explore, it polls opts.Context inside the
// enumeration, so a deadline or cancellation stops a large
// method × binding × response product promptly with the context's error;
// and like Explore it reports when the subset-response fan-out was cut to
// MaxResponseChoices, so verdicts built on a capped successor set are
// never mistaken for exact.
//
// Unlike Explore's visitor, the returned transitions are owned by the
// caller: each After is a fresh instance (Before aliases conf, which the
// caller owns anyway). Responses are enumerated lazily via the same subset
// masks as Explore, so no 2^n slice of slices is materialized along the
// way.
func Successors(sch *schema.Schema, opts Options, conf *instance.Instance) ([]access.Transition, Report, error) {
	o, err := opts.prepare("Successors")
	if err != nil {
		return nil, Report{}, err
	}
	e := newExplorer(sch, o)
	for _, v := range conf.ActiveDomain() {
		e.known[v] = true
	}
	fr := &frame{}
	var out []access.Transition
	polled := 0
	emit := func(acc access.Access, resp []instance.Tuple) error {
		next := conf.Clone()
		rel := acc.Method.Relation().Name()
		for _, t := range resp {
			if _, err := next.Add(rel, t); err != nil {
				return err
			}
		}
		out = append(out, access.Transition{Before: conf, Access: acc, After: next})
		return nil
	}
	for _, m := range sch.Methods() {
		bas := e.bindings(m)
		exact := e.exact(m)
		for i := range bas {
			// Poll every few bindings, not just on entry: the product can
			// be huge and each binding fans out into 2^k responses.
			polled++
			if o.Context != nil && polled&0x3f == 0 {
				if err := o.Context.Err(); err != nil {
					return nil, Report{ResponsesCapped: e.respCapped}, err
				}
			}
			acc := bas[i].acc
			// Same lazy enumerator as Explore: one source of truth for
			// exactness, the response cap and the fan-out order.
			it := e.responses(fr, &bas[i], exact)
			for {
				resp, _, ok := it.next(fr)
				if !ok {
					break
				}
				if err := emit(acc, resp); err != nil {
					return nil, Report{ResponsesCapped: e.respCapped}, err
				}
			}
		}
	}
	return out, Report{ResponsesCapped: e.respCapped}, nil
}
