package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"accltl/accesscheck/server"
)

// class puts every answer in exactly one bucket.
type class uint8

const (
	classExact     class = iota // 200, pinned verdict, neither truncated nor partial
	classPartial                // 200, pinned verdict, but truncated or partial
	class4xx                    // 4xx
	class5xx                    // 5xx other than 504
	class504                    // 504: a budget ran out
	classTransport              // no HTTP answer at all
	classWrong                  // 200 with a verdict other than the pinned one
	numClasses
)

var classNames = [numClasses]string{"exact", "partial", "4xx", "5xx", "504", "transport", "wrong"}

func (c class) String() string { return classNames[c] }

// answer is what the benchmark keeps of a 200 response.
type answer struct {
	value     bool
	exact     bool
	cached    bool
	elapsedMS float64
	// decoded is the wire response struct, for the trace replay's encode
	// step.
	decoded any
}

// decodeAnswer reads a 200 body of the given route.
func decodeAnswer(route string, body []byte) (answer, error) {
	var a answer
	switch route {
	case routeCheck:
		var r server.CheckResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return a, err
		}
		full := r.ShardsTotal == 0 || r.ShardsCompleted == r.ShardsTotal || r.Satisfiable
		a = answer{value: r.Satisfiable, exact: !r.Truncated && !r.Resumable && full,
			cached: r.Cached, elapsedMS: r.ElapsedMS, decoded: &r}
	case routeContainment:
		var r server.ContainmentResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return a, err
		}
		a = answer{value: r.Contained, exact: r.Exact && !r.Truncated, cached: r.Cached, elapsedMS: r.ElapsedMS, decoded: &r}
	case routeRelevance:
		// Only accessible-part scenarios are served, so Answer is the verdict.
		var r server.RelevanceResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return a, err
		}
		a = answer{value: r.Answer, exact: !r.Truncated, cached: r.Cached, elapsedMS: r.ElapsedMS, decoded: &r}
	case routeChase:
		var r server.ChaseResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return a, err
		}
		a = answer{value: r.Implied, exact: r.Terminated && !r.Truncated, cached: r.Cached, elapsedMS: r.ElapsedMS, decoded: &r}
	default:
		return a, fmt.Errorf("unknown route %q", route)
	}
	return a, nil
}

// classify buckets one exchange. err is a transport error (no answer).
func classify(r *request, status int, body []byte, err error) (class, answer) {
	switch {
	case err != nil:
		return classTransport, answer{}
	case status == http.StatusGatewayTimeout:
		return class504, answer{}
	case status >= 500:
		return class5xx, answer{}
	case status >= 400:
		return class4xx, answer{}
	case status != http.StatusOK:
		return class5xx, answer{} // no route answers other 2xx/3xx codes
	}
	a, derr := decodeAnswer(r.Route, body)
	if derr != nil || a.value != r.Want.Value {
		return classWrong, a
	}
	if r.Want.Exact && !a.exact {
		return classPartial, a
	}
	return classExact, a
}

// tally counts answers per class.
type tally [numClasses]int

func (t *tally) add(c class) { t[c]++ }

func (t tally) attempted() int {
	n := 0
	for _, c := range t {
		n += c
	}
	return n
}

// failed counts the errors: non-2xx answers, transport errors and wrong
// verdicts.
func (t tally) failed() int {
	n := 0
	for c := class4xx; c < numClasses; c++ {
		n += t[c]
	}
	return n
}

func (t tally) ratio(n int) float64 {
	if t.attempted() == 0 {
		return 0
	}
	return float64(n) / float64(t.attempted())
}

// exactRatio is exact answers over requests attempted.
func (t tally) exactRatio() float64 { return t.ratio(t[classExact]) }

// errorRatio is failed answers over requests attempted.
func (t tally) errorRatio() float64 { return t.ratio(t.failed()) }

func (t tally) String() string {
	s := ""
	for c, n := range t {
		if n > 0 {
			s += fmt.Sprintf(" %s=%d", class(c), n)
		}
	}
	return "attempted=" + fmt.Sprint(t.attempted()) + s
}
