package main

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/ppvp"
)

// The oracle answers every query by brute force over triangle pairs, with
// the geom predicates and a box-distance prune, on each object decoded once
// at its own highest LOD. It shares no query code with the engine: no
// R-tree, no AABB tree, no decode cache, no LOD schedule.

// solid is one object decoded at full resolution.
type solid struct {
	id     int64
	box    geom.Box3
	tris   []geom.Triangle
	tboxes []geom.Box3
}

func newSolid(id int64, tris []geom.Triangle) *solid {
	s := &solid{id: id, box: geom.EmptyBox(), tris: tris, tboxes: make([]geom.Box3, len(tris))}
	for i, t := range tris {
		s.tboxes[i] = t.Bounds()
		s.box = s.box.Union(s.tboxes[i])
	}
	return s
}

// decodeTop decodes every object of d at its own highest LOD.
func decodeTop(d *core.Dataset) ([]*solid, error) {
	return decodeAt(d, func(c *ppvp.Compressed) int { return c.MaxLOD() })
}

func decodeAt(d *core.Dataset, lodOf func(*ppvp.Compressed) int) ([]*solid, error) {
	out := make([]*solid, len(d.Tileset.Objects))
	for i, o := range d.Tileset.Objects {
		m, err := o.Comp.Decode(lodOf(o.Comp))
		if err != nil {
			return nil, err
		}
		out[i] = newSolid(o.ID, m.Triangles())
	}
	return out, nil
}

// dist2 returns the squared surface distance between a and b, or a value
// ≥ upper2 when the distance is at least sqrt(upper2).
func dist2(a, b *solid, upper2 float64) float64 {
	best := upper2
	for i, ta := range a.tris {
		if a.tboxes[i].MinDist2(b.box) >= best {
			continue
		}
		for j, tb := range b.tris {
			if a.tboxes[i].MinDist2(b.tboxes[j]) >= best {
				continue
			}
			if d := geom.TriTriDist2(ta, tb); d < best {
				best = d
				if best == 0 {
					return 0
				}
			}
		}
	}
	return best
}

// intersects reports whether the surfaces of a and b meet or one solid
// contains the other.
func intersects(a, b *solid) bool {
	if !a.box.Intersects(b.box) {
		return false
	}
	for i, ta := range a.tris {
		if !a.tboxes[i].Intersects(b.box) {
			continue
		}
		for j, tb := range b.tris {
			if a.tboxes[i].Intersects(b.tboxes[j]) && geom.TriTriIntersect(ta, tb) {
				return true
			}
		}
	}
	// Disjoint surfaces: the solids meet only if one holds the other.
	return contains(a, b.tris[0].A) || contains(b, a.tris[0].A)
}

// contains reports whether p lies inside the closed surface of s.
func contains(s *solid, p geom.Vec3) bool {
	return s.box.ContainsPoint(p) && geom.PointInTriangles(p, s.tris)
}

// inRange reports whether the geometry of s meets the box: a face touches
// it, the solid lies inside it, or the solid holds it.
func inRange(s *solid, box geom.Box3) bool {
	if !s.box.Intersects(box) {
		return false
	}
	if box.Contains(s.box) {
		return true
	}
	boxSolid := newSolid(-1, boxTriangles(box))
	for i, t := range s.tris {
		if !s.tboxes[i].Intersects(box) {
			continue
		}
		if box.ContainsPoint(t.A) || box.ContainsPoint(t.B) || box.ContainsPoint(t.C) {
			return true
		}
		for _, bt := range boxSolid.tris {
			if geom.TriTriIntersect(t, bt) {
				return true
			}
		}
	}
	return contains(s, box.Center())
}

// boxTriangles triangulates the six faces of a box.
func boxTriangles(b geom.Box3) []geom.Triangle {
	quads := [][4]int{{0, 2, 3, 1}, {4, 5, 7, 6}, {0, 1, 5, 4}, {2, 6, 7, 3}, {0, 4, 6, 2}, {1, 3, 7, 5}}
	tris := make([]geom.Triangle, 0, 12)
	for _, q := range quads {
		tris = append(tris,
			geom.Tri(b.Corner(q[0]), b.Corner(q[1]), b.Corner(q[2])),
			geom.Tri(b.Corner(q[0]), b.Corner(q[2]), b.Corner(q[3])))
	}
	return tris
}

// near is one source at its exact surface distance from a target.
type near struct {
	Source int64   `json:"s"`
	Dist   float64 `json:"d"`
}

// distTable lists, per target ID, every source within radius plus at least
// the kmax nearest sources, closest first (ties by source ID). Every
// within join with dist ≤ radius and every kNN join with k ≤ kmax reads its
// answer off the table.
func distTable(targets, sources []*solid, radius float64, kmax int) [][]near {
	out := make([][]near, len(targets))
	parallel(len(targets), func(i int) {
		t := targets[i]
		order := make([]int, len(sources))
		boxd := make([]float64, len(sources))
		for j, s := range sources {
			order[j] = j
			boxd[j] = t.box.MinDist(s.box)
		}
		sort.Slice(order, func(a, b int) bool { return boxd[order[a]] < boxd[order[b]] })
		var found []near
		for _, j := range order {
			// Sources are visited by box distance, a lower bound of the
			// surface distance: stop once no closer one can follow.
			limit := math.Inf(1)
			if len(found) >= kmax {
				limit = math.Max(radius, found[kmax-1].Dist)
			}
			if boxd[j] > limit {
				break
			}
			d2 := dist2(t, sources[j], limit*limit*(1+1e-6)+1e-12)
			d := math.Sqrt(d2)
			if d > limit {
				continue
			}
			found = append(found, near{Source: sources[j].id, Dist: d})
			sort.Slice(found, func(a, b int) bool {
				if found[a].Dist != found[b].Dist {
					return found[a].Dist < found[b].Dist
				}
				return found[a].Source < found[b].Source
			})
		}
		keep := found[:0]
		for r, n := range found {
			if r < kmax || n.Dist <= radius {
				keep = append(keep, n)
			}
		}
		out[i] = keep
	})
	return out
}

// intersectTable lists, per target ID, the sources whose geometry meets it.
func intersectTable(targets, sources []*solid) [][]int64 {
	out := make([][]int64, len(targets))
	parallel(len(targets), func(i int) {
		for _, s := range sources {
			if intersects(targets[i], s) {
				out[i] = append(out[i], s.id)
			}
		}
	})
	return out
}

// parallel runs f(0..n-1) on GOMAXPROCS goroutines and waits for them.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
