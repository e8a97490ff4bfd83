package main

import (
	"context"
	"strings"
	"testing"
	"time"
)

func allFixtures() []fixture {
	var fs []fixture
	for k := 4; k <= 7; k++ {
		fs = append(fs, wideFixture(k))
	}
	fs = append(fs, checkFixtures()...)
	return append(fs, taskFixtures()...)
}

// TestRenamingKeepsVerdictAndPaths runs every fixture through the facade
// twice, as pinned and renamed, and requires the pinned verdict, an exact
// answer, and — for checks — the same PathsExplored both times.
func TestRenamingKeepsVerdictAndPaths(t *testing.T) {
	ctx := context.Background()
	for _, fx := range allFixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			base := fx.request("")
			ren := fx.request("4711")
			if string(base.Body) == string(ren.Body) {
				t.Fatalf("renaming changed nothing: %s", ren.Body)
			}
			var paths [2]int
			for i, r := range []request{base, ren} {
				p, err := parseRequest(r.Route, r.Body)
				if err != nil {
					t.Fatalf("parse %s: %v", r.Body, err)
				}
				start := time.Now()
				if p.task == nil {
					res, err := p.chk.Check(ctx, p.sch, p.f)
					if err != nil {
						t.Fatalf("check: %v", err)
					}
					if res.Satisfiable != fx.want.Value || res.Truncated {
						t.Fatalf("satisfiable=%v truncated=%v, pinned %v exact", res.Satisfiable, res.Truncated, fx.want.Value)
					}
					paths[i] = res.PathsExplored
					t.Logf("%s engine=%s paths=%d in %v", fx.name, res.Engine, res.PathsExplored, time.Since(start))
					continue
				}
				res, err := p.chk.Do(ctx, p.task)
				if err != nil {
					t.Fatalf("do: %v", err)
				}
				if res.Verdict != fx.want.Value || res.Truncated {
					t.Fatalf("verdict=%v truncated=%v, pinned %v exact", res.Verdict, res.Truncated, fx.want.Value)
				}
			}
			if paths[0] != paths[1] {
				t.Fatalf("PathsExplored %d pinned, %d renamed", paths[0], paths[1])
			}
		})
	}
}

func TestRenamerLeavesConstantsAndVariables(t *testing.T) {
	r := newRenamer([]string{"Address", "AcM1", "Mobile#"}, "9")
	got := r.str(`[exists n,s. bind AcM1(n) & pre Address(s,"Address",n)] & Mobile#("AcM1")`)
	want := `[exists n,s. bind AcM1_9(n) & pre Address_9(s,"Address",n)] & Mobile#_9("AcM1")`
	if got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
	if !strings.Contains(r.str("AcM1:Mobile#:0"), "AcM1_9:Mobile#_9:0") {
		t.Fatalf("declaration not renamed: %s", r.str("AcM1:Mobile#:0"))
	}
}
