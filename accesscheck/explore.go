package accesscheck

import (
	"context"
	"fmt"

	"accltl/internal/lts"
)

// PathTree is the tree of possible access paths (Figure 1): nodes are
// "Known Facts" configurations, edges are accesses with one well-formed
// response each. Every configuration and response in the tree is owned by
// the tree — the zero-clone exploration core underneath (see internal/lts)
// only lends its state to visitors, and the tree builder clones what it
// keeps.
type PathTree = lts.TreeNode

// PathStats summarizes an exploration: paths and distinct configurations
// reached per depth.
type PathStats = lts.Stats

// ltsOptions checks the arguments of PathTree and PathStats (op) and
// returns the checker's configuration as the options of a walk of sch's
// paths against universe, up to depth, under ctx.
func (c *Checker) ltsOptions(op string, ctx context.Context, sch *Schema, universe *Instance, depth int) (lts.Options, error) {
	if sch == nil {
		return lts.Options{}, fmt.Errorf("accesscheck: %s: nil schema", op)
	}
	if universe == nil {
		return lts.Options{}, fmt.Errorf("accesscheck: %s: nil universe", op)
	}
	if depth < 0 {
		return lts.Options{}, fmt.Errorf("accesscheck: %s: negative depth %d", op, depth)
	}
	if err := c.ValidateFor(sch); err != nil {
		return lts.Options{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return c.solveOptions(ctx, sch).Walk(universe, depth), nil
}

// PathTree materializes the tree of possible paths of the schema against a
// hidden universe, up to the given depth. The checker's restrictions
// (grounded, exact, idempotent, initial instance) apply, and ctx bounds the
// exploration.
func (c *Checker) PathTree(ctx context.Context, sch *Schema, universe *Instance, depth int) (*PathTree, error) {
	o, err := c.ltsOptions("PathTree", ctx, sch, universe, depth)
	if err != nil {
		return nil, err
	}
	return lts.BuildTree(sch, o)
}

// PathStats explores the schema's paths against a hidden universe and
// returns per-depth path and configuration counts.
func (c *Checker) PathStats(ctx context.Context, sch *Schema, universe *Instance, depth int) (PathStats, error) {
	o, err := c.ltsOptions("PathStats", ctx, sch, universe, depth)
	if err != nil {
		return PathStats{}, err
	}
	return lts.Collect(sch, o)
}
