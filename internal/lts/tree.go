package lts

import (
	"fmt"
	"io"
	"strings"

	"accltl/internal/access"
	"accltl/internal/instance"
	"accltl/internal/schema"
)

// TreeNode is one node of the tree of possible paths (Figure 1): the known
// facts after a sequence of accesses, with children per possible next
// access/response.
type TreeNode struct {
	// Access made to reach this node (zero Access for the root).
	Access access.Access
	// Response received.
	Response []instance.Tuple
	// KnownFacts is the configuration at this node.
	KnownFacts *instance.Instance
	Children   []*TreeNode
}

// BuildTree materializes the tree of possible paths up to the options'
// depth bound. The visitor's arguments are borrowed (see Visitor), and tree
// nodes outlive the exploration, so configurations and responses are cloned
// into the nodes here. The construction depends on one walker's
// depth-first order (a parent is attached before its children), so
// Parallelism is ignored.
func BuildTree(sch *schema.Schema, opts Options) (*TreeNode, error) {
	opts.Parallelism = 0
	root := &TreeNode{}
	// Map from path fingerprint to node so we can attach children. We rely
	// on Explore's DFS order: a path's parent prefix is visited before it.
	nodes := map[string]*TreeNode{"": root}
	_, err := Explore(sch, opts, func(p *access.Path, _, conf *instance.Instance) (bool, error) {
		key := pathKey(p)
		if p.Len() == 0 {
			root.KnownFacts = conf.Clone()
			return true, nil
		}
		parent := nodes[pathKey2(p, p.Len()-1)]
		if parent == nil {
			return false, fmt.Errorf("lts: parent of %s not visited", key)
		}
		last := p.Step(p.Len() - 1)
		var resp []instance.Tuple
		if len(last.Response) > 0 {
			resp = append(resp, last.Response...)
		}
		node := &TreeNode{Access: last.Access, Response: resp, KnownFacts: conf.Clone()}
		parent.Children = append(parent.Children, node)
		nodes[key] = node
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return root, nil
}

func pathKey(p *access.Path) string { return pathKey2(p, p.Len()) }

func pathKey2(p *access.Path, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		s := p.Step(i)
		b.WriteString(s.Access.Key())
		b.WriteByte('>')
		b.WriteString(access.ResponseFingerprint(s.Response))
		b.WriteByte('|')
	}
	return b.String()
}

// Render writes an ASCII rendering of the tree in the style of Figure 1.
func (n *TreeNode) Render(w io.Writer) {
	n.render(w, 0)
}

func (n *TreeNode) render(w io.Writer, depth int) {
	indent := strings.Repeat("  ", depth)
	if depth == 0 {
		fmt.Fprintf(w, "%sKnown Facts = %s\n", indent, renderFacts(n.KnownFacts))
	} else {
		fmt.Fprintf(w, "%s%s\n", indent, n.Access)
		fmt.Fprintf(w, "%s  Known Facts = %s\n", indent, renderFacts(n.KnownFacts))
	}
	for _, c := range n.Children {
		c.render(w, depth+1)
	}
}

func renderFacts(in *instance.Instance) string {
	if in == nil || in.IsEmpty() {
		return "∅"
	}
	return in.String()
}

// CountNodes returns the number of nodes in the tree (including the root).
func (n *TreeNode) CountNodes() int {
	c := 1
	for _, ch := range n.Children {
		c += ch.CountNodes()
	}
	return c
}

// Depth returns the height of the tree.
func (n *TreeNode) Depth() int {
	d := 0
	for _, ch := range n.Children {
		if cd := ch.Depth() + 1; cd > d {
			d = cd
		}
	}
	return d
}
