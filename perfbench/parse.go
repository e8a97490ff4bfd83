package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"accltl/accesscheck"
	"accltl/accesscheck/server"
)

// parsed is a request taken apart the way the server takes it apart:
// strictly decoded wire struct, then the facade's text front-ends. The
// trace replays time each step; the fixture tests reuse it to run the
// pinned questions through the facade directly.
type parsed struct {
	// Checks.
	checkReq *server.CheckRequest
	chk      *accesscheck.Checker
	sch      *accesscheck.Schema
	f        accesscheck.Formula
	// Other tasks.
	task *accesscheck.Task
}

// decodeWire strictly decodes a request body into the server's wire type
// for its route (the server's DisallowUnknownFields decode).
func decodeWire(route string, body []byte) (any, error) {
	var v any
	switch route {
	case routeCheck:
		v = new(server.CheckRequest)
	case routeContainment:
		v = new(server.ContainmentRequest)
	case routeRelevance:
		v = new(server.RelevanceRequest)
	case routeChase:
		v = new(server.ChaseRequest)
	default:
		return nil, fmt.Errorf("unknown route %q", route)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return nil, fmt.Errorf("decode %s body: %w", route, err)
	}
	return v, nil
}

// checkerOptions translates wire check options into facade options the
// way the server does, at parallelism 1 (the server default on this
// machine: GOMAXPROCS / Workers).
func checkerOptions(o *server.CheckOptions) ([]accesscheck.Option, error) {
	opts := []accesscheck.Option{accesscheck.WithParallelism(1)}
	if o == nil {
		return opts, nil
	}
	engine, err := accesscheck.ParseEngine(o.Engine)
	if err != nil {
		return nil, err
	}
	opts = append(opts,
		accesscheck.WithEngine(engine),
		accesscheck.WithMaxDepth(o.MaxDepth),
		accesscheck.WithMaxPaths(o.MaxPaths),
		accesscheck.WithMaxResponseChoices(o.MaxResponseChoices),
	)
	if o.Grounded {
		opts = append(opts, accesscheck.WithGrounded())
	}
	if o.IdempotentOnly {
		opts = append(opts, accesscheck.WithIdempotentOnly())
	}
	if o.AllExact {
		opts = append(opts, accesscheck.WithAllExact())
	}
	if len(o.ExactMethods) > 0 {
		opts = append(opts, accesscheck.WithExactMethods(o.ExactMethods...))
	}
	return opts, nil
}

// parseWire runs the text front-ends over a decoded wire request.
func parseWire(wire any) (*parsed, error) {
	p := &parsed{}
	var err error
	switch req := wire.(type) {
	case *server.CheckRequest:
		p.checkReq = req
		opts, err := checkerOptions(req.Options)
		if err != nil {
			return nil, err
		}
		if p.chk, err = accesscheck.NewChecker(opts...); err != nil {
			return nil, err
		}
		if p.sch, err = accesscheck.ParseSchema(req.Relations, req.Methods); err != nil {
			return nil, err
		}
		if p.f, err = accesscheck.ParseFormula(req.Formula); err != nil {
			return nil, err
		}
		return p, nil
	case *server.ContainmentRequest:
		p.task, err = containmentTask(req)
	case *server.RelevanceRequest:
		p.task, err = relevanceTask(req)
	case *server.ChaseRequest:
		p.task, err = chaseTask(req)
	default:
		return nil, fmt.Errorf("unexpected wire type %T", wire)
	}
	if err != nil {
		return nil, err
	}
	if p.chk, err = accesscheck.NewChecker(); err != nil {
		return nil, err
	}
	return p, p.task.Validate()
}

func parseRequest(route string, body []byte) (*parsed, error) {
	wire, err := decodeWire(route, body)
	if err != nil {
		return nil, err
	}
	return parseWire(wire)
}

// fingerprint is the cache key the server derives for the request.
func (p *parsed) fingerprint() (string, error) {
	if p.task == nil {
		return p.chk.Fingerprint(p.sch, p.f), nil
	}
	return p.chk.FingerprintTask(p.task)
}

func schemaAndFacts(rels, methods, facts []string) (*accesscheck.Schema, *accesscheck.Instance, error) {
	sch, err := accesscheck.ParseSchema(rels, methods)
	if err != nil || len(facts) == 0 {
		return sch, nil, err
	}
	in, err := accesscheck.ParseInstance(sch, facts)
	return sch, in, err
}

func containmentTask(req *server.ContainmentRequest) (*accesscheck.Task, error) {
	mode, err := accesscheck.ParseContainmentMode(req.Mode)
	if err != nil {
		return nil, err
	}
	q2, err := accesscheck.ParseSentence(req.Q2)
	if err != nil {
		return nil, err
	}
	switch mode {
	case accesscheck.ContainUCQ:
		q1, err := accesscheck.ParseSentence(req.Q1)
		if err != nil {
			return nil, err
		}
		return accesscheck.NewUCQContainmentTask(q1, q2), nil
	case accesscheck.ContainDatalog:
		prog, err := accesscheck.ParseProgram(req.Rules, req.Goal)
		if err != nil {
			return nil, err
		}
		return accesscheck.NewDatalogContainmentTask(prog, q2, req.Depth), nil
	default:
		sch, seed, err := schemaAndFacts(req.Relations, req.Methods, req.Seed)
		if err != nil {
			return nil, err
		}
		q1, err := accesscheck.ParseSentence(req.Q1)
		if err != nil {
			return nil, err
		}
		return accesscheck.NewAccessContainmentTask(sch, q1, q2, seed, req.Depth), nil
	}
}

func relevanceTask(req *server.RelevanceRequest) (*accesscheck.Task, error) {
	sch, hidden, err := schemaAndFacts(req.Relations, req.Methods, req.Hidden)
	if err != nil {
		return nil, err
	}
	query, err := accesscheck.ParseSentence(req.Query)
	if err != nil {
		return nil, err
	}
	rt := &accesscheck.RelevanceTask{
		Schema: sch, Probe: req.Probe, Query: query, Hidden: hidden,
		Grounded: req.Grounded, MaxDepth: req.MaxDepth,
	}
	if len(req.Seed) > 0 {
		if rt.Seed, err = accesscheck.ParseInstance(sch, req.Seed); err != nil {
			return nil, err
		}
	}
	if req.Probe != "" {
		m, ok := sch.Method(req.Probe)
		if !ok {
			return nil, fmt.Errorf("schema has no method %q", req.Probe)
		}
		if rt.Binding, err = accesscheck.ParseBinding(m, req.Binding); err != nil {
			return nil, err
		}
	}
	return accesscheck.NewRelevanceTask(rt), nil
}

func chaseTask(req *server.ChaseRequest) (*accesscheck.Task, error) {
	ct := &accesscheck.ChaseTask{Arities: make(map[string]int, len(req.Arities)), StepBudget: req.StepBudget}
	for _, a := range req.Arities {
		rel, n, err := accesscheck.ParseArity(a)
		if err != nil {
			return nil, err
		}
		ct.Arities[rel] = n
	}
	for _, src := range req.FDs {
		fd, err := accesscheck.ParseFD(src)
		if err != nil {
			return nil, err
		}
		ct.FDs = append(ct.FDs, fd)
	}
	for _, src := range req.IDs {
		id, err := accesscheck.ParseID(src)
		if err != nil {
			return nil, err
		}
		ct.IDs = append(ct.IDs, id)
	}
	if strings.TrimSpace(req.Sigma) == "" {
		return nil, fmt.Errorf("missing sigma")
	}
	sigma, err := accesscheck.ParseFD(req.Sigma)
	if err != nil {
		return nil, err
	}
	ct.Sigma = sigma
	return accesscheck.NewChaseTask(ct), nil
}
