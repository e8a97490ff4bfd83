package lts

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accltl/internal/access"
	"accltl/internal/instance"
)

// parallelGrid is the W axis of the golden tests: enough walkers to force
// real sharing, including more walkers than shards.
var parallelGrid = []int{2, 3, 8}

// TestParallelCollectMatchesSerial pins the headline equivalence: Collect
// under any Parallelism returns the same Stats as the serial engine. For
// path-capped searches only the budget semantics are order-independent —
// TotalPaths and PathsCapped — because which prefixes fill the budget
// depends on the shard schedule; exhaustive searches must agree exactly,
// per-depth counts, distinct configurations and cap flags alike.
func TestParallelCollectMatchesSerial(t *testing.T) {
	s := tinySchema(t)
	for _, c := range equivalenceGrid(t, s) {
		for _, w := range parallelGrid {
			c, w := c, w
			t.Run(c.name+"/w="+itoa(w), func(t *testing.T) {
				want, err := Collect(s, c.opts)
				if err != nil {
					t.Fatalf("serial: %v", err)
				}
				popts := c.opts
				popts.Parallelism = w
				got, err := Collect(s, popts)
				if err != nil {
					t.Fatalf("parallel: %v", err)
				}
				if c.opts.MaxPaths > 0 {
					if got.TotalPaths != want.TotalPaths || got.PathsCapped != want.PathsCapped {
						t.Fatalf("capped run diverged: serial total=%d capped=%v, parallel total=%d capped=%v",
							want.TotalPaths, want.PathsCapped, got.TotalPaths, got.PathsCapped)
					}
					return
				}
				if !statsEqual(want, got) {
					t.Fatalf("stats diverged:\nserial:   %+v\nparallel: %+v", want, got)
				}
			})
		}
	}
}

func statsEqual(a, b Stats) bool {
	if a.TotalPaths != b.TotalPaths || a.PathsCapped != b.PathsCapped || a.ResponsesCapped != b.ResponsesCapped {
		return false
	}
	if len(a.PathsPerDepth) != len(b.PathsPerDepth) || len(a.ConfigsPerDepth) != len(b.ConfigsPerDepth) {
		return false
	}
	for i := range a.PathsPerDepth {
		if a.PathsPerDepth[i] != b.PathsPerDepth[i] {
			return false
		}
	}
	for i := range a.ConfigsPerDepth {
		if a.ConfigsPerDepth[i] != b.ConfigsPerDepth[i] {
			return false
		}
	}
	return true
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// TestParallelExploreVisitSetMatchesSerial demands the strongest
// order-insensitive golden property on exhaustive runs: the multiset of
// (path, configuration) pairs visited under Parallelism W is exactly the
// serial engine's, for every uncapped cell of the option grid.
func TestParallelExploreVisitSetMatchesSerial(t *testing.T) {
	s := tinySchema(t)
	for _, c := range equivalenceGrid(t, s) {
		if c.opts.MaxPaths > 0 {
			continue // visited-prefix choice under a cap is schedule-dependent
		}
		for _, w := range parallelGrid {
			c, w := c, w
			t.Run(c.name+"/w="+itoa(w), func(t *testing.T) {
				var want []string
				wantRep, err := Explore(s, c.opts, func(p *access.Path, _, conf *instance.Instance) (bool, error) {
					want = append(want, p.String()+"\x00"+conf.Fingerprint())
					return true, nil
				})
				if err != nil {
					t.Fatalf("serial: %v", err)
				}
				popts := c.opts
				popts.Parallelism = w
				var mu sync.Mutex
				var got []string
				gotRep, err := Explore(s, popts, func(p *access.Path, pre, conf *instance.Instance) (bool, error) {
					mu.Lock()
					got = append(got, p.String()+"\x00"+conf.Fingerprint())
					mu.Unlock()
					// The borrowed pre must still be the parent configuration
					// in every walker: the last transition is (pre, acc, conf).
					if p.Len() == 0 && pre.Fingerprint() != conf.Fingerprint() {
						t.Error("root: pre != conf")
					}
					return true, nil
				})
				if err != nil {
					t.Fatalf("parallel: %v", err)
				}
				if !sameReportCore(wantRep, gotRep) {
					t.Fatalf("report mismatch: serial %+v, parallel %+v", wantRep, gotRep)
				}
				// Exhaustive uncapped run: every root shard's subtree walk
				// ran to completion, and the report must say so — the
				// invariant checkpoint/resume skips shards by.
				if len(gotRep.CompletedShards) != gotRep.TotalShards {
					t.Fatalf("completed %v of %d shards on an exhaustive run",
						gotRep.CompletedShards, gotRep.TotalShards)
				}
				sort.Strings(want)
				sort.Strings(got)
				if len(want) != len(got) {
					t.Fatalf("visit counts differ: serial %d, parallel %d", len(want), len(got))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("visit multisets differ at %d:\nserial:   %q\nparallel: %q", i, want[i], got[i])
					}
				}
			})
		}
	}
}

// TestExploreShardedContract pins the walker visitor contract of the plan
// walk: the root visitor sees exactly the empty path; at most Parallelism
// walkers start; each walker visits its shards one after another; every
// shard's visits are paths opening with one fixed (access, response) pair,
// starting at depth 1; and shard indexes are the contiguous canonical ones.
func TestExploreShardedContract(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	plan, err := NewPlan(s, Options{Universe: u, MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	var rootVisits atomic.Int64
	type shardTrace struct {
		mu    sync.Mutex
		first string // rendering of the shard's first step
		paths []string
	}
	var mu sync.Mutex
	var walkers atomic.Int64
	traces := map[int]*shardTrace{}
	rep, err := plan.Explore(nil, 4, nil,
		func(p *access.Path, pre, conf *instance.Instance) (bool, error) {
			rootVisits.Add(1)
			if p.Len() != 0 {
				t.Errorf("root visitor saw non-root path %s", p)
			}
			return true, nil
		},
		func() ShardVisitor {
			walkers.Add(1)
			// A walker's shards follow one another: once it leaves a shard
			// it never visits that shard again.
			cur, left := -1, map[int]bool{}
			return func(shard int, p *access.Path, pre, conf *instance.Instance) (bool, error) {
				if shard != cur {
					if left[shard] {
						t.Errorf("walker came back to shard %d", shard)
					}
					left[cur], cur = true, shard
				}
				mu.Lock()
				tr := traces[shard]
				if tr == nil {
					tr = &shardTrace{}
					traces[shard] = tr
				}
				mu.Unlock()
				tr.mu.Lock()
				defer tr.mu.Unlock()
				if p.Len() < 1 {
					t.Errorf("shard %d visited the root", shard)
					return false, nil
				}
				first := p.Step(0).String()
				if tr.first == "" {
					tr.first = first
				} else if tr.first != first {
					t.Errorf("shard %d mixes first steps %q and %q", shard, tr.first, first)
				}
				tr.paths = append(tr.paths, p.String())
				return true, nil
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if rootVisits.Load() != 1 {
		t.Errorf("root visited %d times", rootVisits.Load())
	}
	if n := walkers.Load(); n < 1 || n > 4 {
		t.Errorf("%d walkers started, want 1 to 4", n)
	}
	total := 1
	firsts := map[string]bool{}
	for shard, tr := range traces {
		total += len(tr.paths)
		if len(tr.paths) == 0 {
			t.Errorf("shard %d created but never visited", shard)
		}
		if firsts[tr.first] {
			t.Errorf("first step %q owned by more than one shard", tr.first)
		}
		firsts[tr.first] = true
	}
	if total != rep.Paths {
		t.Errorf("visits %d != Report.Paths %d", total, rep.Paths)
	}
	// Shard indexes are the canonical ones, 0 to the plan size.
	idx := make([]int, 0, len(traces))
	for i := range traces {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for k := 1; k < len(idx); k++ {
		if idx[k] != idx[k-1]+1 {
			t.Errorf("shard indexes not contiguous: %v", idx)
			break
		}
	}
}

// TestParallelMaxPathsBudgetExact pins the shared-budget semantics across
// the W grid: a cap below the space yields exactly MaxPaths visits with
// PathsCapped set, a cap at the space yields all visits with it unset —
// identical for every Parallelism.
func TestParallelMaxPathsBudgetExact(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	base := Options{Universe: u, MaxDepth: 3}
	full, err := Collect(s, base)
	if err != nil {
		t.Fatal(err)
	}
	space := full.TotalPaths
	for _, w := range append([]int{1}, parallelGrid...) {
		for _, tc := range []struct {
			cap    int
			capped bool
			visits int
		}{
			{cap: 7, capped: true, visits: 7},
			{cap: space, capped: false, visits: space},
			{cap: space + 10, capped: false, visits: space},
		} {
			opts := base
			opts.MaxPaths = tc.cap
			opts.Parallelism = w
			var visits atomic.Int64
			rep, err := Explore(s, opts, func(*access.Path, *instance.Instance, *instance.Instance) (bool, error) {
				visits.Add(1)
				return true, nil
			})
			if err != nil {
				t.Fatalf("w=%d cap=%d: %v", w, tc.cap, err)
			}
			if rep.Paths != tc.visits || int(visits.Load()) != tc.visits || rep.PathsCapped != tc.capped {
				t.Errorf("w=%d cap=%d: Paths=%d visits=%d capped=%v, want %d/%d/%v",
					w, tc.cap, rep.Paths, visits.Load(), rep.PathsCapped, tc.visits, tc.visits, tc.capped)
			}
		}
	}
}

// TestParallelEarlyCancelOnStop: a visitor abort (ErrStop, the witness
// signal) in one walker stops the whole exploration without error and
// without deadlock, and the report stays well-formed.
func TestParallelEarlyCancelOnStop(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	var visits atomic.Int64
	rep, err := Explore(s, Options{Universe: u, MaxDepth: 4, Parallelism: 4},
		func(p *access.Path, _, _ *instance.Instance) (bool, error) {
			if visits.Add(1) == 40 {
				return false, ErrStop
			}
			return true, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Paths < 40 {
		t.Errorf("Report.Paths=%d, want >= 40 (the stop visit happened)", rep.Paths)
	}
	if rep.PathsCapped {
		t.Error("early stop must not report PathsCapped")
	}
}

// TestParallelVisitorErrorPropagates: a real visitor error aborts all
// walkers and surfaces from Explore, with the merged report intact.
func TestParallelVisitorErrorPropagates(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	boom := errors.New("boom")
	var visits atomic.Int64
	rep, err := Explore(s, Options{Universe: u, MaxDepth: 4, Parallelism: 3},
		func(p *access.Path, _, _ *instance.Instance) (bool, error) {
			if visits.Add(1) == 25 {
				return false, boom
			}
			return true, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if rep.Paths < 25 {
		t.Errorf("Report.Paths=%d, want >= 25", rep.Paths)
	}
}

// TestParallelContextCancelMidExploration is the cancellation-promptness
// test the CI race job runs: cancelling the context mid-walk stops every
// walker within its bounded poll cadence, the context error surfaces, and
// the truncated Report is still well-formed (counts match visits).
func TestParallelContextCancelMidExploration(t *testing.T) {
	s := tinySchema(t)
	u := instance.NewInstance(s)
	for i := 1; i <= 4; i++ {
		u.MustAdd("R", instance.Int(int64(i)))
		u.MustAdd("S", instance.Int(int64(i)), instance.Int(int64(i+10)))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var visits atomic.Int64
	start := time.Now()
	rep, err := Explore(s, Options{Universe: u, MaxDepth: 4, Parallelism: 4, Context: ctx},
		func(p *access.Path, _, _ *instance.Instance) (bool, error) {
			if visits.Add(1) == 500 {
				cancel()
			}
			return true, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := visits.Load(); int64(rep.Paths) != got {
		t.Errorf("Report.Paths=%d but %d visits happened", rep.Paths, got)
	}
	// Promptness: every walker polls at least once per 64 of its own nodes,
	// so the whole pool winds down quickly after the cancel; this asserts a
	// generous wall-clock bound rather than an exact node count.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %s", elapsed)
	}
	// And an expired deadline at entry must fail before any walker starts.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := Explore(s, Options{Universe: u, MaxDepth: 3, Parallelism: 2, Context: done}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("expired context at entry: err = %v", err)
	}
}

// TestParallelWholeAccessShardsMatchSerial forces the lazy whole-access
// shard path: one access matching 9 universe tuples with the response cap
// raised to 9 fans out into 2^9 = 512 masks, past maxShardMasksPerAccess,
// so that access becomes a single lazily-enumerated shard. Stats must still
// match the serial engine exactly.
func TestParallelWholeAccessShardsMatchSerial(t *testing.T) {
	s := tinySchema(t)
	u := instance.NewInstance(s)
	u.MustAdd("R", instance.Int(1))
	for x := 2; x <= 10; x++ {
		u.MustAdd("S", instance.Int(1), instance.Int(int64(x)))
	}
	opts := Options{Universe: u, MaxDepth: 2, MaxResponseChoices: 9}
	want, err := Collect(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		popts := opts
		popts.Parallelism = w
		got, err := Collect(s, popts)
		if err != nil {
			t.Fatal(err)
		}
		if !statsEqual(want, got) {
			t.Fatalf("w=%d: stats diverged:\nserial:   %+v\nparallel: %+v", w, want, got)
		}
	}
}

// TestExploreShardedEdgeCases: depth 0 means a root-only report; a root
// visitor that declines expansion stops before any walker starts.
func TestExploreShardedEdgeCases(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	shallow, err := NewPlan(s, Options{Universe: u, MaxDepth: 0})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := shallow.Explore(nil, 4, nil,
		func(p *access.Path, _, _ *instance.Instance) (bool, error) { return true, nil },
		func() ShardVisitor {
			t.Error("walker started at depth 0")
			return nil
		})
	if err != nil || rep.Paths != 1 || rep.PathsCapped {
		t.Fatalf("depth 0: rep=%+v err=%v", rep, err)
	}
	plan, err := NewPlan(s, Options{Universe: u, MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err = plan.Explore(nil, 4, nil,
		func(p *access.Path, _, _ *instance.Instance) (bool, error) { return false, nil },
		func() ShardVisitor {
			t.Error("walker started after root declined")
			return nil
		})
	if err != nil || rep.Paths != 1 {
		t.Fatalf("root decline: rep=%+v err=%v", rep, err)
	}
	if _, err := NewPlan(s, Options{MaxDepth: 1}); err == nil {
		t.Error("nil universe accepted")
	}
}

// TestParallelIgnoredWhereOrderMatters: the order-sensitive enumerations
// stay serial whatever the knob says.
func TestParallelIgnoredWhereOrderMatters(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	serialPaths, err := EnumeratePaths(s, Options{Universe: u, MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	parPaths, err := EnumeratePaths(s, Options{Universe: u, MaxDepth: 2, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serialPaths) != len(parPaths) {
		t.Fatalf("path counts differ: %d vs %d", len(serialPaths), len(parPaths))
	}
	for i := range serialPaths {
		if serialPaths[i].String() != parPaths[i].String() {
			t.Fatalf("EnumeratePaths order changed under Parallelism at %d", i)
		}
	}
	st, err := BuildTree(s, Options{Universe: u, MaxDepth: 2, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := BuildTree(s, Options{Universe: u, MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	st.Render(&a)
	sr.Render(&b)
	if a.String() != b.String() {
		t.Error("BuildTree changed under Parallelism")
	}
}
