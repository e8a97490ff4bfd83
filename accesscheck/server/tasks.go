package server

// The task kinds on the wire: each kind's route, request and response
// types, the parsers that turn requests into facade tasks, and the
// renderers that turn results into responses. /v1/containment,
// /v1/relevance and /v1/chase ride the same spine as /v1/check, and a
// Server answers them through the same bounded worker pool and
// exact-results-only LRU, keyed by FingerprintTask.

import (
	"context"
	"sort"
	"strings"
	"time"

	"accltl/accesscheck"
)

// ContainmentRequest is the wire form of one containment question. Mode
// selects the engine and which fields are read: "ucq" (default) reads
// q1/q2; "datalog" reads rules/goal/q2/depth; "access" reads
// relations/methods/q1/q2/seed/depth.
type ContainmentRequest struct {
	Mode string `json:"mode,omitempty"`
	// Q1 and Q2 are positive sentences (accesscheck.ParseSentence syntax);
	// containment asks Q1 ⊆ Q2 (datalog mode: program ⊆ Q2).
	Q1 string `json:"q1,omitempty"`
	Q2 string `json:"q2"`
	// Rules and Goal define the datalog program ("Head(x) :- Body(x)", one
	// rule per string; Goal names the answer predicate).
	Rules []string `json:"rules,omitempty"`
	Goal  string   `json:"goal,omitempty"`
	// Relations/Methods declare the access-mode schema
	// (accesscheck.ParseSchema syntax); Seed is its initially known
	// instance as textual facts ("Rel(v,...)").
	Relations []string `json:"relations,omitempty"`
	Methods   []string `json:"methods,omitempty"`
	Seed      []string `json:"seed,omitempty"`
	// Depth bounds the search (0 = derived default).
	Depth  int    `json:"depth,omitempty"`
	Budget string `json:"budget,omitempty"`
}

// ContainmentResponse is the wire form of a ContainmentReport in the task
// envelope.
type ContainmentResponse struct {
	Contained         bool    `json:"contained"`
	Exact             bool    `json:"exact"`
	Truncated         bool    `json:"truncated"`
	Mode              string  `json:"mode"`
	Engine            string  `json:"engine"`
	DepthBound        int     `json:"depth_bound,omitempty"`
	ExpansionsChecked int     `json:"expansions_checked,omitempty"`
	PathsExplored     int     `json:"paths_explored,omitempty"`
	Counterexample    string  `json:"counterexample,omitempty"`
	Witness           string  `json:"witness,omitempty"`
	Formula           string  `json:"formula,omitempty"`
	ElapsedMS         float64 `json:"elapsed_ms"`
	Cached            bool    `json:"cached"`
}

// RelevanceRequest is the wire form of one relevance question. A non-empty
// probe selects long-term relevance of the access (probe, binding) to
// query; an empty probe selects accessible-part mode, where hidden is the
// concealed instance and seed the initially known values.
type RelevanceRequest struct {
	Relations []string `json:"relations"`
	Methods   []string `json:"methods,omitempty"`
	Probe     string   `json:"probe,omitempty"`
	Binding   []string `json:"binding,omitempty"`
	Query     string   `json:"query"`
	Hidden    []string `json:"hidden,omitempty"`
	Seed      []string `json:"seed,omitempty"`
	Grounded  bool     `json:"grounded,omitempty"`
	MaxDepth  int      `json:"max_depth,omitempty"`
	Budget    string   `json:"budget,omitempty"`
}

// RelevanceResponse is the wire form of a RelevanceReport in the task
// envelope. Relevant answers probe mode, Answer and Accessible answer
// accessible-part mode.
type RelevanceResponse struct {
	Relevant      bool     `json:"relevant"`
	Answer        bool     `json:"answer"`
	Truncated     bool     `json:"truncated"`
	Engine        string   `json:"engine"`
	Accessible    []string `json:"accessible,omitempty"`
	PathsExplored int      `json:"paths_explored,omitempty"`
	Depth         int      `json:"depth,omitempty"`
	Witness       string   `json:"witness,omitempty"`
	Formula       string   `json:"formula,omitempty"`
	ElapsedMS     float64  `json:"elapsed_ms"`
	Cached        bool     `json:"cached"`
}

// ChaseRequest is the wire form of one FD+ID implication question: does
// the set of dependencies imply sigma? Arities declare the relations
// ("R:3"), FDs are "R:0,1->2", IDs are "R[0,1]<=S[2,3]", sigma is an FD.
type ChaseRequest struct {
	Arities    []string `json:"arities"`
	FDs        []string `json:"fds,omitempty"`
	IDs        []string `json:"ids,omitempty"`
	Sigma      string   `json:"sigma"`
	StepBudget int      `json:"step_budget,omitempty"`
	Budget     string   `json:"budget,omitempty"`
}

// ChaseResponse is the wire form of a ChaseReport in the task envelope.
// Terminated distinguishes a real "not implied" (fixpoint reached) from
// budget exhaustion, which also sets Truncated.
type ChaseResponse struct {
	Implied    bool    `json:"implied"`
	Verdict    string  `json:"verdict"`
	Terminated bool    `json:"terminated"`
	Truncated  bool    `json:"truncated"`
	Engine     string  `json:"engine"`
	Steps      int     `json:"steps"`
	Tuples     int     `json:"tuples"`
	StepBudget int     `json:"step_budget"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Cached     bool    `json:"cached"`
}

// parseContainmentTask translates the wire form into a validated facade
// task; every failure is a 400.
func parseContainmentTask(req *ContainmentRequest) (*accesscheck.Task, error) {
	mode, err := accesscheck.ParseContainmentMode(req.Mode)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	q2, err := parseSentenceField("q2", req.Q2)
	if err != nil {
		return nil, err
	}
	var t *accesscheck.Task
	switch mode {
	case accesscheck.ContainUCQ:
		q1, err := parseSentenceField("q1", req.Q1)
		if err != nil {
			return nil, err
		}
		t = accesscheck.NewUCQContainmentTask(q1, q2)
	case accesscheck.ContainDatalog:
		prog, err := accesscheck.ParseProgram(req.Rules, req.Goal)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		t = accesscheck.NewDatalogContainmentTask(prog, q2, req.Depth)
	case accesscheck.ContainAccess:
		sch, seed, err := parseSchemaAndFacts(req.Relations, req.Methods, req.Seed, "seed")
		if err != nil {
			return nil, err
		}
		q1, err := parseSentenceField("q1", req.Q1)
		if err != nil {
			return nil, err
		}
		t = accesscheck.NewAccessContainmentTask(sch, q1, q2, seed, req.Depth)
	}
	if err := t.Validate(); err != nil {
		return nil, badRequest("%v", err)
	}
	return t, nil
}

// parseRelevanceTask translates the wire form into a validated facade task.
func parseRelevanceTask(req *RelevanceRequest) (*accesscheck.Task, error) {
	sch, hidden, err := parseSchemaAndFacts(req.Relations, req.Methods, req.Hidden, "hidden")
	if err != nil {
		return nil, err
	}
	query, err := parseSentenceField("query", req.Query)
	if err != nil {
		return nil, err
	}
	rt := &accesscheck.RelevanceTask{
		Schema:   sch,
		Probe:    req.Probe,
		Query:    query,
		Hidden:   hidden,
		Grounded: req.Grounded,
		MaxDepth: req.MaxDepth,
	}
	if len(req.Seed) > 0 {
		seed, err := accesscheck.ParseInstance(sch, req.Seed)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		rt.Seed = seed
	}
	if req.Probe != "" {
		m, ok := sch.Method(req.Probe)
		if !ok {
			return nil, badRequest("schema has no method %q", req.Probe)
		}
		binding, err := accesscheck.ParseBinding(m, req.Binding)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		rt.Binding = binding
	}
	t := accesscheck.NewRelevanceTask(rt)
	if err := t.Validate(); err != nil {
		return nil, badRequest("%v", err)
	}
	return t, nil
}

// parseChaseTask translates the wire form into a validated facade task.
func parseChaseTask(req *ChaseRequest) (*accesscheck.Task, error) {
	ct := &accesscheck.ChaseTask{
		Arities:    make(map[string]int, len(req.Arities)),
		StepBudget: req.StepBudget,
	}
	for _, a := range req.Arities {
		rel, n, err := accesscheck.ParseArity(a)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		ct.Arities[rel] = n
	}
	for _, src := range req.FDs {
		fd, err := accesscheck.ParseFD(src)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		ct.FDs = append(ct.FDs, fd)
	}
	for _, src := range req.IDs {
		id, err := accesscheck.ParseID(src)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		ct.IDs = append(ct.IDs, id)
	}
	if strings.TrimSpace(req.Sigma) == "" {
		return nil, badRequest("missing sigma")
	}
	sigma, err := accesscheck.ParseFD(req.Sigma)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	ct.Sigma = sigma
	t := accesscheck.NewChaseTask(ct)
	if err := t.Validate(); err != nil {
		return nil, badRequest("%v", err)
	}
	return t, nil
}

// parseSentenceField parses one named sentence field, failing 400 with the
// field name on errors (and on absence).
func parseSentenceField(name, src string) (accesscheck.Sentence, error) {
	if strings.TrimSpace(src) == "" {
		return nil, badRequest("missing %s", name)
	}
	q, err := accesscheck.ParseSentence(src)
	if err != nil {
		return nil, badRequest("bad %s: %v", name, err)
	}
	return q, nil
}

// parseSchemaAndFacts parses a schema declaration plus an optional fact
// list over it ("seed" / "hidden"); an empty fact list yields nil.
func parseSchemaAndFacts(relations, methods, facts []string, factName string) (*accesscheck.Schema, *accesscheck.Instance, error) {
	if len(relations) == 0 {
		return nil, nil, badRequest("missing relations")
	}
	sch, err := accesscheck.ParseSchema(relations, methods)
	if err != nil {
		return nil, nil, badRequest("%v", err)
	}
	if len(facts) == 0 {
		return sch, nil, nil
	}
	in, err := accesscheck.ParseInstance(sch, facts)
	if err != nil {
		return nil, nil, badRequest("bad %s: %v", factName, err)
	}
	return sch, in, nil
}

// taskWire binds each task kind to its route and wire types. The spine
// registers its single-task routes from it; item builds a batch item whose
// payload a route decodes into, and response an empty answer a
// coordinator decodes a worker's reply into.
var taskWire = [numTaskKinds]struct {
	path     string
	item     func() *TaskRequest
	response func() any
}{
	accesscheck.TaskCheck: {"/v1/check",
		func() *TaskRequest { return &TaskRequest{Check: new(CheckRequest)} },
		func() any { return new(CheckResponse) }},
	accesscheck.TaskContainment: {"/v1/containment",
		func() *TaskRequest { return &TaskRequest{Containment: new(ContainmentRequest)} },
		func() any { return new(ContainmentResponse) }},
	accesscheck.TaskRelevance: {"/v1/relevance",
		func() *TaskRequest { return &TaskRequest{Relevance: new(RelevanceRequest)} },
		func() any { return new(RelevanceResponse) }},
	accesscheck.TaskChase: {"/v1/chase",
		func() *TaskRequest { return &TaskRequest{Chase: new(ChaseRequest)} },
		func() any { return new(ChaseResponse) }},
}

// budget names the budget field of a batch item's payload.
func (t *TaskRequest) budget() string {
	switch {
	case t.Check != nil:
		return t.Check.Budget
	case t.Containment != nil:
		return t.Containment.Budget
	case t.Relevance != nil:
		return t.Relevance.Budget
	case t.Chase != nil:
		return t.Chase.Budget
	}
	return ""
}

// payload returns the item's request for kind, or nil when the item does
// not carry one.
func (t *TaskRequest) payload(kind accesscheck.TaskKind) any {
	switch {
	case kind == accesscheck.TaskCheck && t.Check != nil:
		return t.Check
	case kind == accesscheck.TaskContainment && t.Containment != nil:
		return t.Containment
	case kind == accesscheck.TaskRelevance && t.Relevance != nil:
		return t.Relevance
	case kind == accesscheck.TaskChase && t.Chase != nil:
		return t.Chase
	}
	return nil
}

// task runs one non-check task on the worker: cache probe under the task
// fingerprint, then a solve in the worker pool. The payload is not needed:
// the parsed task carries everything.
func (s *Server) task(ctx context.Context, t *accesscheck.Task, _ any) (any, error) {
	kind := t.Kind
	fp, err := s.taskChk.FingerprintTask(t)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	tr, ok := s.cache.Get(fp)
	cached := ok && tr.Kind == kind
	if cached {
		s.taskCacheHits[kind].Add(1)
	} else {
		s.taskCacheMisses[kind].Add(1)
		res, err := s.solve(ctx, fp, func() (*accesscheck.TaskResult, error) { return s.taskChk.Do(ctx, t) })
		if err != nil {
			return nil, err
		}
		if res.Truncated {
			s.taskTruncations[kind].Add(1)
		}
		tr = *res
	}
	switch kind {
	case accesscheck.TaskContainment:
		return wireContainment(&tr, cached), nil
	case accesscheck.TaskRelevance:
		return wireRelevance(&tr, cached), nil
	default:
		return wireChase(&tr, cached), nil
	}
}

func wireContainment(tr *accesscheck.TaskResult, cached bool) *ContainmentResponse {
	rep := tr.Containment
	out := &ContainmentResponse{
		Contained:         rep.Contained,
		Exact:             rep.Exact,
		Truncated:         tr.Truncated,
		Mode:              rep.Mode.String(),
		Engine:            tr.Engine,
		DepthBound:        rep.DepthBound,
		ExpansionsChecked: rep.ExpansionsChecked,
		PathsExplored:     rep.PathsExplored,
		Counterexample:    rep.Counterexample,
		Formula:           rep.Formula,
		ElapsedMS:         float64(tr.Elapsed) / float64(time.Millisecond),
		Cached:            cached,
	}
	if rep.Witness != nil {
		out.Witness = rep.Witness.String()
	}
	return out
}

func wireRelevance(tr *accesscheck.TaskResult, cached bool) *RelevanceResponse {
	rep := tr.Relevance
	out := &RelevanceResponse{
		Relevant:      rep.Relevant,
		Answer:        rep.Answer,
		Truncated:     tr.Truncated,
		Engine:        tr.Engine,
		PathsExplored: rep.PathsExplored,
		Depth:         rep.Depth,
		Formula:       rep.Formula,
		ElapsedMS:     float64(tr.Elapsed) / float64(time.Millisecond),
		Cached:        cached,
	}
	if rep.Witness != nil {
		out.Witness = rep.Witness.String()
	}
	if rep.Accessible != nil {
		out.Accessible = renderInstance(rep.Accessible)
	}
	return out
}

func wireChase(tr *accesscheck.TaskResult, cached bool) *ChaseResponse {
	rep := tr.Chase
	return &ChaseResponse{
		Implied:    rep.Implied,
		Verdict:    rep.Verdict,
		Terminated: rep.Terminated,
		Truncated:  tr.Truncated,
		Engine:     tr.Engine,
		Steps:      rep.Steps,
		Tuples:     rep.Tuples,
		StepBudget: rep.Budget,
		ElapsedMS:  float64(tr.Elapsed) / float64(time.Millisecond),
		Cached:     cached,
	}
}

// renderInstance prints an instance as sorted textual facts — the same
// "Rel(v,...)" syntax the request accepted, so responses round-trip.
func renderInstance(in *accesscheck.Instance) []string {
	var out []string
	for _, rel := range in.Schema().Relations() {
		for _, t := range in.Tuples(rel.Name()) {
			out = append(out, rel.Name()+t.String())
		}
	}
	sort.Strings(out)
	return out
}
