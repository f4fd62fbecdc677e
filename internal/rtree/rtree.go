// Package rtree implements an in-memory R-tree spatial index with
// quadratic-split insertion and sort-tile-recursive (STR) bulk loading.
// Strabon uses it to accelerate the spatial joins of the refinement
// queries.
package rtree

import (
	"math"
	"sort"

	"repro/internal/geom"
)

const (
	maxEntries = 16
	minEntries = maxEntries * 2 / 5
)

// Item is an indexed payload with its bounding box.
type Item struct {
	Box  geom.Envelope
	Data any
}

type node struct {
	leaf     bool
	box      geom.Envelope
	items    []Item  // leaf payloads
	children []*node // internal children
}

// Tree is the R-tree. The zero value is an empty, usable tree.
type Tree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Len reports the number of indexed items.
func (t *Tree) Len() int { return t.size }

// Insert adds an item to the index.
func (t *Tree) Insert(box geom.Envelope, data any) {
	item := Item{Box: box, Data: data}
	if t.root == nil {
		t.root = &node{leaf: true, box: box, items: []Item{item}}
		t.size = 1
		return
	}
	n1, n2 := t.insert(t.root, item)
	if n2 != nil {
		// Root split: grow the tree.
		t.root = &node{
			leaf:     false,
			box:      n1.box.Expand(n2.box),
			children: []*node{n1, n2},
		}
	}
	t.size++
}

// insert pushes item down from n; returns (n, nil) or the two nodes
// resulting from a split.
func (t *Tree) insert(n *node, item Item) (*node, *node) {
	n.box = n.box.Expand(item.Box)
	if n.leaf {
		n.items = append(n.items, item)
		if len(n.items) > maxEntries {
			return splitLeaf(n)
		}
		return n, nil
	}
	best := chooseSubtree(n.children, item.Box)
	c1, c2 := t.insert(n.children[best], item)
	n.children[best] = c1
	if c2 != nil {
		n.children = append(n.children, c2)
		if len(n.children) > maxEntries {
			return splitInternal(n)
		}
	}
	return n, nil
}

// chooseSubtree picks the child needing least enlargement (ties by area).
func chooseSubtree(children []*node, box geom.Envelope) int {
	best := 0
	bestEnl := math.Inf(1)
	bestArea := math.Inf(1)
	for i, c := range children {
		area := c.box.Area()
		enl := c.box.Expand(box).Area() - area
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// splitLeaf performs a quadratic split of an overfull leaf.
func splitLeaf(n *node) (*node, *node) {
	seeds1, seeds2 := pickSeeds(len(n.items), func(i int) geom.Envelope { return n.items[i].Box })
	a := &node{leaf: true, box: n.items[seeds1].Box, items: []Item{n.items[seeds1]}}
	b := &node{leaf: true, box: n.items[seeds2].Box, items: []Item{n.items[seeds2]}}
	for i, it := range n.items {
		if i == seeds1 || i == seeds2 {
			continue
		}
		assignLeaf(a, b, it, len(n.items)-i-1)
	}
	return a, b
}

func assignLeaf(a, b *node, it Item, remaining int) {
	// Force-assign when one side risks falling under the minimum.
	if len(a.items)+remaining+1 <= minEntries {
		a.items = append(a.items, it)
		a.box = a.box.Expand(it.Box)
		return
	}
	if len(b.items)+remaining+1 <= minEntries {
		b.items = append(b.items, it)
		b.box = b.box.Expand(it.Box)
		return
	}
	enlA := a.box.Expand(it.Box).Area() - a.box.Area()
	enlB := b.box.Expand(it.Box).Area() - b.box.Area()
	if enlA < enlB || (enlA == enlB && len(a.items) <= len(b.items)) {
		a.items = append(a.items, it)
		a.box = a.box.Expand(it.Box)
	} else {
		b.items = append(b.items, it)
		b.box = b.box.Expand(it.Box)
	}
}

func splitInternal(n *node) (*node, *node) {
	s1, s2 := pickSeeds(len(n.children), func(i int) geom.Envelope { return n.children[i].box })
	a := &node{box: n.children[s1].box, children: []*node{n.children[s1]}}
	b := &node{box: n.children[s2].box, children: []*node{n.children[s2]}}
	for i, c := range n.children {
		if i == s1 || i == s2 {
			continue
		}
		enlA := a.box.Expand(c.box).Area() - a.box.Area()
		enlB := b.box.Expand(c.box).Area() - b.box.Area()
		if enlA < enlB || (enlA == enlB && len(a.children) <= len(b.children)) {
			a.children = append(a.children, c)
			a.box = a.box.Expand(c.box)
		} else {
			b.children = append(b.children, c)
			b.box = b.box.Expand(c.box)
		}
	}
	return a, b
}

// pickSeeds returns the pair of entries wasting the most area together.
func pickSeeds(n int, boxAt func(int) geom.Envelope) (int, int) {
	worst := -math.MaxFloat64
	s1, s2 := 0, 1
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			bi, bj := boxAt(i), boxAt(j)
			waste := bi.Expand(bj).Area() - bi.Area() - bj.Area()
			if waste > worst {
				worst, s1, s2 = waste, i, j
			}
		}
	}
	return s1, s2
}

// Search visits every item whose box intersects the query window. The
// visit function returns false to stop early; Search reports whether it
// ran to its end.
func (t *Tree) Search(window geom.Envelope, visit func(Item) bool) bool {
	return t.root == nil || searchNode(t.root, window, visit)
}

func searchNode(n *node, window geom.Envelope, visit func(Item) bool) bool {
	if !n.box.Intersects(window) {
		return true
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Box.Intersects(window) {
				if !visit(it) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !searchNode(c, window, visit) {
			return false
		}
	}
	return true
}

// Delete removes the first item whose box equals the given box and whose
// payload compares equal. It reports whether an item was removed.
func (t *Tree) Delete(box geom.Envelope, data any) bool {
	if t.root == nil {
		return false
	}
	removed, orphans := deleteFrom(t.root, box, data)
	if !removed {
		return false
	}
	t.size--
	// Reinsert orphaned items from underfull nodes.
	for _, it := range orphans {
		t.size--
		t.Insert(it.Box, it.Data)
	}
	if !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if t.size == 0 {
		t.root = nil
	}
	return true
}

func deleteFrom(n *node, box geom.Envelope, data any) (bool, []Item) {
	if !n.box.Intersects(box) {
		return false, nil
	}
	if n.leaf {
		for i, it := range n.items {
			if it.Data == data && sameBox(it.Box, box) {
				n.items = append(n.items[:i], n.items[i+1:]...)
				n.box = recomputeLeafBox(n)
				return true, nil
			}
		}
		return false, nil
	}
	for i, c := range n.children {
		ok, orphans := deleteFrom(c, box, data)
		if !ok {
			continue
		}
		if (c.leaf && len(c.items) < minEntries) || (!c.leaf && len(c.children) < minEntries) {
			// Dissolve the underfull child; reinsert its items.
			n.children = append(n.children[:i], n.children[i+1:]...)
			orphans = append(orphans, collectItems(c)...)
		}
		n.box = recomputeInternalBox(n)
		return true, orphans
	}
	return false, nil
}

func sameBox(a, b geom.Envelope) bool {
	return a.MinX == b.MinX && a.MinY == b.MinY && a.MaxX == b.MaxX && a.MaxY == b.MaxY
}

func recomputeLeafBox(n *node) geom.Envelope {
	e := geom.EmptyEnvelope()
	for _, it := range n.items {
		e = e.Expand(it.Box)
	}
	return e
}

func recomputeInternalBox(n *node) geom.Envelope {
	e := geom.EmptyEnvelope()
	for _, c := range n.children {
		e = e.Expand(c.box)
	}
	return e
}

func collectItems(n *node) []Item {
	if n.leaf {
		return n.items
	}
	var out []Item
	for _, c := range n.children {
		out = append(out, collectItems(c)...)
	}
	return out
}

// InsertAll adds a batch of items in one call. Small batches fall back to
// repeated insertion; a batch that is large relative to the tree (or lands
// in an empty tree) triggers an STR rebuild over the union, producing a
// well-packed tree in O(n log n) instead of n quadratic-split descents.
// Strabon's batched writer uses this so the spatial index is bulk-loaded
// once per flush rather than once per triple.
func (t *Tree) InsertAll(items []Item) {
	if len(items) == 0 {
		return
	}
	// Rebuild when the batch would grow the tree by a quarter or more.
	if t.root == nil || len(items)*4 >= t.size {
		union := make([]Item, 0, t.size+len(items))
		if t.root != nil {
			union = append(union, collectItems(t.root)...)
		}
		union = append(union, items...)
		*t = *BulkLoad(union)
		return
	}
	for _, it := range items {
		t.Insert(it.Box, it.Data)
	}
}

// BulkLoad builds a tree from items with the STR (sort-tile-recursive)
// algorithm, producing a well-packed tree much faster than repeated
// insertion.
func BulkLoad(items []Item) *Tree {
	t := &Tree{size: len(items)}
	if len(items) == 0 {
		return t
	}
	leaves := strPack(items)
	nodes := leaves
	for len(nodes) > 1 {
		nodes = strPackNodes(nodes)
	}
	t.root = nodes[0]
	return t
}

func strPack(items []Item) []*node {
	n := len(items)
	leafCount := (n + maxEntries - 1) / maxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	perSlice := sliceCount * maxEntries

	sorted := append([]Item(nil), items...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Box.Center().X < sorted[j].Box.Center().X
	})
	var leaves []*node
	for s := 0; s < n; s += perSlice {
		end := min(s+perSlice, n)
		slice := sorted[s:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Box.Center().Y < slice[j].Box.Center().Y
		})
		for i := 0; i < len(slice); i += maxEntries {
			j := min(i+maxEntries, len(slice))
			leaf := &node{leaf: true, items: append([]Item(nil), slice[i:j]...)}
			leaf.box = recomputeLeafBox(leaf)
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

func strPackNodes(children []*node) []*node {
	n := len(children)
	nodeCount := (n + maxEntries - 1) / maxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(nodeCount))))
	perSlice := sliceCount * maxEntries

	sorted := append([]*node(nil), children...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].box.Center().X < sorted[j].box.Center().X
	})
	var out []*node
	for s := 0; s < n; s += perSlice {
		end := min(s+perSlice, n)
		slice := sorted[s:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].box.Center().Y < slice[j].box.Center().Y
		})
		for i := 0; i < len(slice); i += maxEntries {
			j := min(i+maxEntries, len(slice))
			parent := &node{children: append([]*node(nil), slice[i:j]...)}
			parent.box = recomputeInternalBox(parent)
			out = append(out, parent)
		}
	}
	return out
}
