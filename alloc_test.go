package bench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"accltl/accesscheck"
)

// TestWideCheckAnytimeAllocs guards the allocation cost of a fresh check
// as the server runs it (BenchmarkWideCheckAnytime's setup): planning the
// root partition and searching it with every embedded sentence evaluated
// at every prefix. The budgets are the counts of the current engine (626,
// 725, 829 and 928 for wide4–7) plus about 10%. A buffer per letter
// evaluation, a structure wrapper per prefix, or a binding pool rebuilt
// per method puts wide7 back near its earlier 11,500.
func TestWideCheckAnytimeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	budgets := map[int]float64{4: 690, 5: 800, 6: 910, 7: 1020}
	for k := 4; k <= 7; k++ {
		t.Run(fmt.Sprintf("wide%d", k), func(t *testing.T) {
			sch, f := wideCheck(t, k)
			chk, err := accesscheck.NewChecker(
				accesscheck.WithParallelism(1),
				accesscheck.WithEngine(accesscheck.EngineBounded),
				accesscheck.WithMaxDepth(4))
			if err != nil {
				t.Fatal(err)
			}
			check := func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				res, _, err := chk.CheckAnytime(ctx, sch, f, nil)
				if err != nil || res.Satisfiable || res.Truncated {
					t.Fatalf("res=%+v err=%v", res, err)
				}
			}
			avg := testing.AllocsPerRun(5, check)
			t.Logf("%.0f allocs per check", avg)
			if avg > budgets[k] {
				t.Errorf("a fresh wide%d check allocates %.0f times (budget %.0f)", k, avg, budgets[k])
			}
		})
	}
}

// TestShardPlanAllocs guards the allocation cost of ShardPlan, which a
// fabric coordinator runs for every check its merged cache misses: it
// prepares the whole search a check would run (letters, skeleton and
// tables as well as the root partition) and returns its plan. The budgets
// are the counts of the current engine (570, 666, 767 and 864 for wide4–7)
// plus about 10%.
func TestShardPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	budgets := map[int]float64{4: 630, 5: 735, 6: 845, 7: 950}
	for k := 4; k <= 7; k++ {
		t.Run(fmt.Sprintf("wide%d", k), func(t *testing.T) {
			sch, f := wideCheck(t, k)
			chk, err := accesscheck.NewChecker(
				accesscheck.WithParallelism(1),
				accesscheck.WithEngine(accesscheck.EngineBounded),
				accesscheck.WithMaxDepth(4))
			if err != nil {
				t.Fatal(err)
			}
			plan := func() {
				ids, _, err := chk.ShardPlan(context.Background(), sch, f)
				if err != nil || len(ids) < 2 {
					t.Fatalf("plan of %d shards, err=%v", len(ids), err)
				}
			}
			avg := testing.AllocsPerRun(5, plan)
			t.Logf("%.0f allocs per plan", avg)
			if avg > budgets[k] {
				t.Errorf("planning wide%d allocates %.0f times (budget %.0f)", k, avg, budgets[k])
			}
		})
	}
}
