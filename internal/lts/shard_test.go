package lts

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"accltl/internal/access"
	"accltl/internal/instance"
	"accltl/internal/schema"
)

// planIDs enumerates a plan and returns its descriptors and root cap.
func planIDs(t *testing.T, s *schema.Schema, opts Options) ([]ShardID, bool) {
	t.Helper()
	plan, err := NewPlan(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	return plan.IDs(), plan.ResponsesCapped()
}

// walkPlan runs a plan walk restricted to shards at w walkers with one
// Visitor for the root and every walker.
func walkPlan(plan *Plan, w int, shards []int, visit Visitor) (Report, error) {
	walker := func(_ int, p *access.Path, pre, conf *instance.Instance) (bool, error) { return visit(p, pre, conf) }
	return plan.Explore(nil, w, shards, visit, func() ShardVisitor { return walker })
}

// planStats is Collect over a plan walk restricted to shards at w walkers.
func planStats(t *testing.T, plan *Plan, w int, shards []int) (Stats, error) {
	t.Helper()
	var mu sync.Mutex
	var st Stats
	var seen []map[instance.Hash]bool
	rep, err := walkPlan(plan, w, shards, func(p *access.Path, _, conf *instance.Instance) (bool, error) {
		mu.Lock()
		defer mu.Unlock()
		d := p.Len()
		for len(st.PathsPerDepth) <= d {
			st.PathsPerDepth = append(st.PathsPerDepth, 0)
			seen = append(seen, map[instance.Hash]bool{})
		}
		st.PathsPerDepth[d]++
		st.TotalPaths++
		seen[d][conf.Hash()] = true
		return true, nil
	})
	for _, m := range seen {
		st.ConfigsPerDepth = append(st.ConfigsPerDepth, len(m))
	}
	st.PathsCapped, st.ResponsesCapped = rep.PathsCapped, rep.ResponsesCapped
	return st, err
}

// TestShardsEnumerationDeterministic: two enumerations over the same inputs
// must agree on every index and key — the wire-shard contract — and the
// canonical order is the schema's: shard i opens with the i-th distinct
// first step of Explore's visit order (a whole-access shard spans the run
// of first steps of its access), and keys are distinct.
func TestShardsEnumerationDeterministic(t *testing.T) {
	s := tinySchema(t)
	for _, c := range equivalenceGrid(t, s) {
		t.Run(c.name, func(t *testing.T) {
			a, aCap := planIDs(t, s, c.opts)
			b, bCap := planIDs(t, s, c.opts)
			if aCap != bCap || len(a) != len(b) {
				t.Fatalf("enumerations diverged: %d/%v vs %d/%v", len(a), aCap, len(b), bCap)
			}
			keys := map[string]int{}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("shard %d diverged: %+v vs %+v", i, a[i], b[i])
				}
				if a[i].Index != i {
					t.Fatalf("shard %d carries index %d", i, a[i].Index)
				}
				if prev, dup := keys[a[i].Key]; dup {
					t.Fatalf("shards %d and %d share key %q", prev, i, a[i].Key)
				}
				keys[a[i].Key] = i
			}
			// Explore's first steps, in visit order: the access key, and the
			// shard key of the (access, response) pair.
			type first struct{ acc, key string }
			var firsts []first
			_, err := Explore(s, c.opts, func(p *access.Path, _, _ *instance.Instance) (bool, error) {
				if p.Len() == 1 {
					st := p.Step(0)
					acc := st.Access.Key()
					firsts = append(firsts, first{acc, acc + "\x1e" + access.ResponseFingerprint(st.Response)})
				}
				return true, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			i, j := 0, 0
			for ; i < len(a) && j < len(firsts); i++ {
				if !a[i].WholeAccess {
					if firsts[j].key != a[i].Key {
						t.Fatalf("shard %d is %q, but Explore's first step %d is %q", i, a[i].Key, j, firsts[j].key)
					}
					j++
					continue
				}
				if firsts[j].acc != a[i].Key {
					t.Fatalf("whole-access shard %d is %q, but Explore's first step %d is %q", i, a[i].Key, j, firsts[j].acc)
				}
				for j < len(firsts) && firsts[j].acc == a[i].Key {
					j++
				}
			}
			if j != len(firsts) {
				t.Fatalf("%d of Explore's %d first steps open no shard", len(firsts)-j, len(firsts))
			}
			if c.opts.MaxPaths == 0 && i != len(a) {
				t.Fatalf("%d of %d shards open none of an exhaustive Explore's first steps", len(a)-i, len(a))
			}
		})
	}
}

// TestShardSubsetPartitionExact: executing every shard as its own singleton
// subset and merging reports must reproduce the serial engine exactly —
// Paths via sum minus the per-run duplicate root visits, ResponsesCapped
// via OR. This is the merge arithmetic the distributed coordinator uses.
func TestShardSubsetPartitionExact(t *testing.T) {
	s := tinySchema(t)
	for _, c := range equivalenceGrid(t, s) {
		if c.opts.MaxPaths > 0 {
			continue // capped cells: the budget is global, not partitionable
		}
		t.Run(c.name, func(t *testing.T) {
			serial, err := Collect(s, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := NewPlan(s, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			ids := plan.IDs()
			if len(ids) == 0 {
				// Root with no successors: the serial run is root-only.
				if serial.TotalPaths != 1 {
					t.Fatalf("empty partition but serial explored %d paths", serial.TotalPaths)
				}
				return
			}
			sumPaths := 0
			orResp := false
			merged := Stats{}
			for _, id := range ids {
				st, err := planStats(t, plan, 1, []int{id.Index})
				if err != nil {
					t.Fatalf("shard %d: %v", id.Index, err)
				}
				sumPaths += st.TotalPaths
				orResp = orResp || st.ResponsesCapped
				for d, n := range st.PathsPerDepth {
					for len(merged.PathsPerDepth) <= d {
						merged.PathsPerDepth = append(merged.PathsPerDepth, 0)
					}
					merged.PathsPerDepth[d] += n
				}
			}
			// Every singleton run visits the root once; the merged count
			// dedups it down to the single serial root visit.
			got := sumPaths - (len(ids) - 1)
			if got != serial.TotalPaths {
				t.Errorf("merged paths = %d (sum %d over %d shards), serial %d",
					got, sumPaths, len(ids), serial.TotalPaths)
			}
			if orResp != serial.ResponsesCapped {
				t.Errorf("merged ResponsesCapped = %v, serial %v", orResp, serial.ResponsesCapped)
			}
			if len(merged.PathsPerDepth) != len(serial.PathsPerDepth) {
				t.Fatalf("depth shape diverged: %v vs %v", merged.PathsPerDepth, serial.PathsPerDepth)
			}
			for d := range merged.PathsPerDepth {
				want := serial.PathsPerDepth[d]
				if d == 0 {
					want += len(ids) - 1 // duplicate roots before dedup
				}
				if merged.PathsPerDepth[d] != want {
					t.Errorf("depth %d: merged %d, want %d", d, merged.PathsPerDepth[d], want)
				}
			}
		})
	}
}

// TestShardSubsetVisitsOnlyItsShard: a subset run must visit exactly the
// prefixes opening with its shard's first access/response (plus the root),
// disjointly from every other subset — the partition property.
func TestShardSubsetVisitsOnlyItsShard(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	opts := Options{Universe: u, MaxDepth: 2}
	plan, err := NewPlan(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{} // non-root path → shard that visited it
	for _, id := range plan.IDs() {
		_, err := walkPlan(plan, 1, []int{id.Index}, func(p *access.Path, _, _ *instance.Instance) (bool, error) {
			if p.Len() == 0 {
				return true, nil
			}
			key := p.String()
			if prev, dup := seen[key]; dup {
				t.Fatalf("path %q visited by shards %d and %d", key, prev, id.Index)
			}
			seen[key] = id.Index
			return true, nil
		})
		if err != nil {
			t.Fatalf("shard %d: %v", id.Index, err)
		}
	}
	// The union must be the serial engine's non-root visit set.
	total := 0
	_, err = Explore(s, opts, func(p *access.Path, _, _ *instance.Instance) (bool, error) {
		if p.Len() > 0 {
			total++
			if _, ok := seen[p.String()]; !ok {
				t.Errorf("serial path %q missed by every shard subset", p.String())
			}
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != len(seen) {
		t.Errorf("subset union has %d paths, serial %d", len(seen), total)
	}
}

// TestShardSubsetValidation: out-of-range indexes error, duplicates
// collapse, the empty subset visits only the root, and visitors receive
// global canonical indexes.
func TestShardSubsetValidation(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	plan, err := NewPlan(s, Options{Universe: u, MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := len(plan.IDs())
	all := func(*access.Path, *instance.Instance, *instance.Instance) (bool, error) { return true, nil }

	if _, err := walkPlan(plan, 1, []int{n}, all); err == nil {
		t.Error("out-of-range shard index accepted")
	}

	rep, err := walkPlan(plan, 1, []int{}, func(p *access.Path, _, _ *instance.Instance) (bool, error) {
		if p.Len() > 0 {
			t.Errorf("empty subset visited %q", p.String())
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Paths != 1 {
		t.Errorf("empty subset visited %d prefixes, want 1 (root)", rep.Paths)
	}

	dupRep, err := walkPlan(plan, 1, []int{1, 1, 0, 0}, all)
	if err != nil {
		t.Fatal(err)
	}
	oneRep, err := walkPlan(plan, 1, []int{0, 1}, all)
	if err != nil {
		t.Fatal(err)
	}
	// Deep equality on purpose: the canonicalized subsets are identical, so
	// the per-shard completion lists must agree too.
	if !reflect.DeepEqual(dupRep, oneRep) {
		t.Errorf("duplicate indexes changed the report: %+v vs %+v", dupRep, oneRep)
	}

	// Visitors receive global indexes even under a subset.
	want := []int{n - 1}
	seen := map[int]bool{}
	_, err = plan.Explore(nil, 1, want, all,
		func() ShardVisitor {
			return func(shard int, _ *access.Path, _, _ *instance.Instance) (bool, error) {
				seen[shard] = true
				return true, nil
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || !seen[n-1] {
		t.Errorf("visitors saw shards %v, want %v", seen, want)
	}
}

// TestShardSubsetParallelMatches: a subset executed with several walkers
// reports the same exhaustive counts as the same subset executed serially.
func TestShardSubsetParallelMatches(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	plan, err := NewPlan(s, Options{Universe: u, MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	ids := plan.IDs()
	half := make([]int, 0, len(ids)/2+1)
	for i := 0; i < len(ids); i += 2 {
		half = append(half, i)
	}
	want, err := planStats(t, plan, 1, half)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parallelGrid {
		got, err := planStats(t, plan, w, half)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if !statsEqual(want, got) {
			t.Errorf("w=%d: subset stats diverged:\nserial:   %+v\nparallel: %+v", w, want, got)
		}
	}
}

// TestPlanExecutesLikeExploreSharded: one enumerated Plan, executed again
// and again — whole, on shard subsets and at several walker counts —
// visits exactly what the plan walk visits over a fresh enumeration, with
// identical reports, and describes the same partition.
func TestPlanExecutesLikeExploreSharded(t *testing.T) {
	s := tinySchema(t)
	type run func(root Visitor, walker func() ShardVisitor) (Report, error)
	trace := func(t *testing.T, r run) ([]string, Report) {
		var mu sync.Mutex
		var visits []string
		rep, err := r(
			func(p *access.Path, _, _ *instance.Instance) (bool, error) { return true, nil },
			func() ShardVisitor {
				return func(shard int, p *access.Path, _, _ *instance.Instance) (bool, error) {
					mu.Lock()
					visits = append(visits, fmt.Sprintf("%d:%s", shard, p))
					mu.Unlock()
					return true, nil
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(visits)
		return visits, rep
	}
	for _, c := range equivalenceGrid(t, s) {
		if c.opts.MaxPaths > 0 {
			continue // a capped run's visit set depends on the schedule
		}
		t.Run(c.name, func(t *testing.T) {
			plan, err := NewPlan(s, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			ids, capped := planIDs(t, s, c.opts)
			if !reflect.DeepEqual(plan.IDs(), ids) || plan.ResponsesCapped() != capped {
				t.Fatalf("plan describes %v (capped %v), a fresh plan %v (capped %v)", plan.IDs(), plan.ResponsesCapped(), ids, capped)
			}
			var evens []int
			for i := 0; i < len(ids); i += 2 {
				evens = append(evens, i)
			}
			for _, sub := range [][]int{nil, {}, evens} {
				for _, w := range []int{1, 3} {
					want, wantRep := trace(t, func(root Visitor, walker func() ShardVisitor) (Report, error) {
						fresh, err := NewPlan(s, c.opts)
						if err != nil {
							return Report{}, err
						}
						return fresh.Explore(nil, w, sub, root, walker)
					})
					for i := 0; i < 2; i++ {
						got, gotRep := trace(t, func(root Visitor, walker func() ShardVisitor) (Report, error) {
							return plan.Explore(nil, w, sub, root, walker)
						})
						if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotRep, wantRep) {
							t.Fatalf("shards %v W=%d run %d: plan visited %d (%+v), a fresh plan %d (%+v)",
								sub, w, i, len(got), gotRep, len(want), wantRep)
						}
					}
				}
			}
		})
	}
}

// TestDominanceMemoWidenKeepsEntries: a memo made for one walker and
// widened for more keeps every commitment, so a persistent memo resumed by
// a search with more walkers prunes exactly as before.
func TestDominanceMemoWidenKeepsEntries(t *testing.T) {
	m := NewDominanceMemo(func(k int) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 })
	for k := 0; k < 200; k++ {
		m.DominatedOrRecord(k, k%5)
	}
	m.Widen(1)
	if len(m.stripes) != 1 {
		t.Fatalf("one walker widened the memo to %d stripes", len(m.stripes))
	}
	m.Widen(4)
	if len(m.stripes) != Stripes(4) {
		t.Fatalf("%d stripes after widening for 4 walkers, want %d", len(m.stripes), Stripes(4))
	}
	m.Widen(1)
	if len(m.stripes) != Stripes(4) {
		t.Fatalf("Widen narrowed the memo to %d stripes", len(m.stripes))
	}
	for k := 0; k < 200; k++ {
		if !m.DominatedOrRecord(k, k%5) {
			t.Fatalf("key %d lost its commitment when the memo widened", k)
		}
		if m.DominatedOrRecord(k, k%5+1) {
			t.Fatalf("key %d dominated a larger budget", k)
		}
	}
}
