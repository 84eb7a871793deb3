// Package aabbtree implements a hierarchical Axis-Aligned Bounding Box tree
// over triangle primitives, the intra-geometry index of the paper's §5.1.
// Building the tree over one decoded polyhedron's faces reduces the cost of
// evaluating two geometries from O(N·N') to O(N·log N') for intersection
// detection and distance calculation.
package aabbtree

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// maxLeafSize is the number of triangles kept per leaf.
const maxLeafSize = 4

// node is a binary tree node over a contiguous range of the reordered
// triangle slice.
type node struct {
	box         geom.Box3
	left, right int32 // children indices, -1 for leaves
	start, end  int32 // triangle range [start, end) for leaves
}

// Tree is an immutable AABB tree over a set of triangles. It is safe for
// concurrent queries after Build.
type Tree struct {
	tris  []geom.Triangle
	boxes []geom.Box3
	nodes []node
	root  int32
}

// Build constructs a tree over the given triangles. The input slice is not
// retained; an internal copy is reordered during construction. Build returns
// an empty tree for no triangles.
func Build(tris []geom.Triangle) *Tree {
	t := &Tree{
		tris:  append([]geom.Triangle(nil), tris...),
		boxes: make([]geom.Box3, len(tris)),
		root:  -1,
	}
	for i, tr := range t.tris {
		t.boxes[i] = tr.Bounds()
	}
	if len(t.tris) > 0 {
		t.nodes = make([]node, 0, 2*len(tris)/maxLeafSize+1)
		t.root = t.build(0, int32(len(t.tris)))
	}
	return t
}

// BuildSoA constructs a tree from an SoA triangle set, reusing the
// precomputed per-triangle bounding boxes in its lanes instead of
// recomputing Bounds for every face. The SoA is not retained.
func BuildSoA(s *geom.TriSoA) *Tree {
	n := s.Len()
	t := &Tree{
		tris:  make([]geom.Triangle, n),
		boxes: make([]geom.Box3, n),
		root:  -1,
	}
	for i := 0; i < n; i++ {
		t.tris[i] = s.At(i)
		t.boxes[i] = geom.Box3{
			Min: geom.Vec3{X: s.MinX[i], Y: s.MinY[i], Z: s.MinZ[i]},
			Max: geom.Vec3{X: s.MaxX[i], Y: s.MaxY[i], Z: s.MaxZ[i]},
		}
	}
	if n > 0 {
		t.nodes = make([]node, 0, 2*n/maxLeafSize+1)
		t.root = t.build(0, int32(n))
	}
	return t
}

// NumTriangles returns the number of indexed triangles.
func (t *Tree) NumTriangles() int { return len(t.tris) }

// Bytes estimates the resident size of the tree: its reordered triangle
// copy, the per-triangle boxes and the node array.
func (t *Tree) Bytes() int64 {
	return int64(len(t.tris))*72 + int64(len(t.boxes))*48 + int64(cap(t.nodes))*64
}

// Bounds returns the bounding box of all indexed triangles.
func (t *Tree) Bounds() geom.Box3 {
	if t.root < 0 {
		return geom.EmptyBox()
	}
	return t.nodes[t.root].box
}

// build recursively partitions the triangle range [lo, hi) by the median
// centroid along the longest axis.
func (t *Tree) build(lo, hi int32) int32 {
	box := geom.EmptyBox()
	for i := lo; i < hi; i++ {
		box = box.Union(t.boxes[i])
	}
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{box: box, left: -1, right: -1, start: lo, end: hi})
	if hi-lo <= maxLeafSize {
		return idx
	}
	axis := box.LongestAxis()
	mid := (lo + hi) / 2
	// Median split by centroid along the chosen axis.
	sort.Sort(&triSorter{t: t, lo: lo, n: int(hi - lo), axis: axis})
	left := t.build(lo, mid)
	right := t.build(mid, hi)
	t.nodes[idx].left = left
	t.nodes[idx].right = right
	return idx
}

// triSorter co-sorts the triangle and box ranges by centroid along an axis.
type triSorter struct {
	t    *Tree
	lo   int32
	n    int
	axis int
}

func (s *triSorter) Len() int { return s.n }
func (s *triSorter) Less(i, j int) bool {
	return s.t.tris[s.lo+int32(i)].Centroid().Component(s.axis) <
		s.t.tris[s.lo+int32(j)].Centroid().Component(s.axis)
}
func (s *triSorter) Swap(i, j int) {
	a, b := s.lo+int32(i), s.lo+int32(j)
	s.t.tris[a], s.t.tris[b] = s.t.tris[b], s.t.tris[a]
	s.t.boxes[a], s.t.boxes[b] = s.t.boxes[b], s.t.boxes[a]
}

// IntersectsTriangle reports whether any indexed triangle intersects q.
func (t *Tree) IntersectsTriangle(q geom.Triangle) bool {
	if t.root < 0 {
		return false
	}
	qb := q.Bounds()
	return t.intersectsTriangleRec(t.root, q, qb)
}

func (t *Tree) intersectsTriangleRec(ni int32, q geom.Triangle, qb geom.Box3) bool {
	n := &t.nodes[ni]
	if !n.box.Intersects(qb) {
		return false
	}
	if n.left < 0 {
		for i := n.start; i < n.end; i++ {
			if t.boxes[i].Intersects(qb) && geom.TriTriIntersect(t.tris[i], q) {
				return true
			}
		}
		return false
	}
	return t.intersectsTriangleRec(n.left, q, qb) || t.intersectsTriangleRec(n.right, q, qb)
}

// IntersectsTree reports whether any triangle of t intersects any triangle
// of o, using simultaneous descent of both trees.
func (t *Tree) IntersectsTree(o *Tree) bool {
	if t.root < 0 || o.root < 0 {
		return false
	}
	return intersectsDual(t, t.root, o, o.root)
}

func intersectsDual(a *Tree, ai int32, b *Tree, bi int32) bool {
	an, bn := &a.nodes[ai], &b.nodes[bi]
	if !an.box.Intersects(bn.box) {
		return false
	}
	aLeaf, bLeaf := an.left < 0, bn.left < 0
	switch {
	case aLeaf && bLeaf:
		for i := an.start; i < an.end; i++ {
			for j := bn.start; j < bn.end; j++ {
				if a.boxes[i].Intersects(b.boxes[j]) &&
					geom.TriTriIntersect(a.tris[i], b.tris[j]) {
					return true
				}
			}
		}
		return false
	case bLeaf || (!aLeaf && an.box.Volume() >= bn.box.Volume()):
		return intersectsDual(a, an.left, b, bi) || intersectsDual(a, an.right, b, bi)
	default:
		return intersectsDual(a, ai, b, bn.left) || intersectsDual(a, ai, b, bn.right)
	}
}

// DistToTriangle returns the minimum distance from q to the indexed set,
// pruned with an optional upper bound: pass math.Inf(1) when unknown.
func (t *Tree) DistToTriangle(q geom.Triangle, upper float64) float64 {
	if t.root < 0 {
		return math.Inf(1)
	}
	best := upper * upper
	if math.IsInf(upper, 1) {
		best = math.Inf(1)
	}
	best = t.distTriRec(t.root, q, q.Bounds(), best)
	return math.Sqrt(best)
}

func (t *Tree) distTriRec(ni int32, q geom.Triangle, qb geom.Box3, best float64) float64 {
	n := &t.nodes[ni]
	if d2 := n.box.MinDist2(qb); d2 >= best {
		return best
	}
	if n.left < 0 {
		for i := n.start; i < n.end; i++ {
			if t.boxes[i].MinDist2(qb) >= best {
				continue
			}
			if d2 := geom.TriTriDist2(t.tris[i], q); d2 < best {
				best = d2
			}
		}
		return best
	}
	// Visit the closer child first for tighter pruning.
	l, r := n.left, n.right
	if t.nodes[l].box.MinDist2(qb) > t.nodes[r].box.MinDist2(qb) {
		l, r = r, l
	}
	best = t.distTriRec(l, q, qb, best)
	best = t.distTriRec(r, q, qb, best)
	return best
}

// DistToTree returns the minimum distance between the two triangle sets via
// branch-and-bound simultaneous descent. It is zero when they intersect.
func (t *Tree) DistToTree(o *Tree) float64 {
	return t.DistToTreeBounded(o, math.Inf(1))
}

// DistToTreeBounded is DistToTree with the descent seeded by an upper bound:
// subtree pairs whose box distance is ≥ upper are pruned without ever
// touching their triangles. When the true distance exceeds upper the
// returned value is ≥ upper but otherwise meaningless — callers must treat
// it as "greater than upper" only. Pass math.Inf(1) for an exact distance.
func (t *Tree) DistToTreeBounded(o *Tree, upper float64) float64 {
	if t.root < 0 || o.root < 0 {
		return math.Inf(1)
	}
	best := math.Inf(1)
	if !math.IsInf(upper, 1) {
		best = upper * upper
	}
	best = distDual(t, t.root, o, o.root, best)
	return math.Sqrt(best)
}

func distDual(a *Tree, ai int32, b *Tree, bi int32, best float64) float64 {
	an, bn := &a.nodes[ai], &b.nodes[bi]
	if d2 := an.box.MinDist2(bn.box); d2 >= best {
		return best
	}
	aLeaf, bLeaf := an.left < 0, bn.left < 0
	switch {
	case aLeaf && bLeaf:
		for i := an.start; i < an.end; i++ {
			for j := bn.start; j < bn.end; j++ {
				if a.boxes[i].MinDist2(b.boxes[j]) >= best {
					continue
				}
				if d2 := geom.TriTriDist2(a.tris[i], b.tris[j]); d2 < best {
					best = d2
				}
			}
		}
		return best
	case bLeaf || (!aLeaf && an.box.Volume() >= bn.box.Volume()):
		// Descend a; nearer child first.
		l, r := an.left, an.right
		if a.nodes[l].box.MinDist2(bn.box) > a.nodes[r].box.MinDist2(bn.box) {
			l, r = r, l
		}
		best = distDual(a, l, b, bi, best)
		best = distDual(a, r, b, bi, best)
		return best
	default:
		l, r := bn.left, bn.right
		if b.nodes[l].box.MinDist2(an.box) > b.nodes[r].box.MinDist2(an.box) {
			l, r = r, l
		}
		best = distDual(a, ai, b, l, best)
		best = distDual(a, ai, b, r, best)
		return best
	}
}

// ContainsPoint reports whether p is inside the closed surface indexed by
// the tree, by counting ray crossings. Degenerate hits (edges, vertices,
// parallel faces) trigger a re-cast along a different direction, exactly as
// geom.PointInTriangles does, but each cast costs O(log N) instead of O(N).
func (t *Tree) ContainsPoint(p geom.Vec3) bool {
	if t.root < 0 || !t.Bounds().ContainsPoint(p) {
		return false
	}
	parity := false
	for _, dir := range geom.RayDirections() {
		r := geom.Ray{Origin: p, Dir: dir}
		crossings, ok := t.countCrossings(t.root, r)
		parity = crossings%2 == 1
		if ok {
			return parity
		}
	}
	return parity
}

func (t *Tree) countCrossings(ni int32, r geom.Ray) (int, bool) {
	n := &t.nodes[ni]
	if !r.IntersectBox(n.box) {
		return 0, true
	}
	if n.left < 0 {
		total := 0
		for i := n.start; i < n.end; i++ {
			c, ok := geom.RayCrossesTriangle(r, t.tris[i])
			if !ok {
				return 0, false
			}
			total += c
		}
		return total, true
	}
	lc, ok := t.countCrossings(n.left, r)
	if !ok {
		return 0, false
	}
	rc, ok := t.countCrossings(n.right, r)
	if !ok {
		return 0, false
	}
	return lc + rc, true
}

// Triangle returns the i-th triangle in tree order.
func (t *Tree) Triangle(i int) geom.Triangle { return t.tris[i] }
