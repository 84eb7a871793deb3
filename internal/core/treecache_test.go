package core

import (
	"context"
	"reflect"
	"testing"
)

// TestWarmQueriesBuildNoTrees pins the decode cache's ownership of AABB
// trees: a query repeated over a warm cache finds every tree next to its
// mesh, builds none, and answers exactly as the cold run did.
func TestWarmQueriesBuildNoTrees(t *testing.T) {
	e := testEngine(t)
	ia, ib := buildPair(t, e)
	da, db := buildDisjointPair(t, e)
	m, err := ia.Tileset.Object(0).Comp.Decode(ia.MaxLOD())
	if err != nil {
		t.Fatal(err)
	}
	p := m.Centroid()
	ctx := context.Background()

	queries := []struct {
		name string
		run  func(q QueryOptions) (any, error)
	}{
		{"intersect", func(q QueryOptions) (any, error) {
			r, _, err := e.IntersectJoin(ctx, ia, ib, q)
			return r, err
		}},
		{"within", func(q QueryOptions) (any, error) {
			r, _, err := e.WithinJoin(ctx, da, db, 12, q)
			return r, err
		}},
		{"nn", func(q QueryOptions) (any, error) {
			r, _, err := e.NNJoin(ctx, da, db, q)
			return r, err
		}},
		{"knn", func(q QueryOptions) (any, error) {
			q.K = 3
			r, _, err := e.KNNJoin(ctx, da, db, q)
			return r, err
		}},
		{"point", func(q QueryOptions) (any, error) {
			r, _, err := e.ContainingObjects(ctx, ia, p, q)
			return r, err
		}},
	}
	for _, sched := range []Sched{SchedStatic, SchedMargin} {
		for _, paradigm := range []Paradigm{FR, FPR} {
			q := QueryOptions{Paradigm: paradigm, Accel: AABB, Sched: sched}
			for _, tc := range queries {
				name := sched.String() + "/" + paradigm.String() + "/" + tc.name
				e.Cache().Clear()
				before := e.Cache().Stats()
				cold, err := tc.run(q)
				if err != nil {
					t.Fatalf("%s cold: %v", name, err)
				}
				mid := e.Cache().Stats()
				if mid.TreeBuilds == before.TreeBuilds {
					t.Fatalf("%s: cold run built no trees; the test would be vacuous", name)
				}
				warm, err := tc.run(q)
				if err != nil {
					t.Fatalf("%s warm: %v", name, err)
				}
				d := e.Cache().Stats().Sub(mid)
				// The margin scheduler's calibrator learns from the cold
				// run and may send the warm run to an LOD the cold run never
				// decoded; such a miss needs its tree built once. A resident
				// entry never does.
				if d.TreeBuilds > d.Misses || (sched == SchedStatic && d.TreeBuilds != 0) {
					t.Errorf("%s: warm run built %d trees with %d decode misses", name, d.TreeBuilds, d.Misses)
				}
				if !reflect.DeepEqual(cold, warm) {
					t.Errorf("%s: warm answer %v differs from cold %v", name, warm, cold)
				}
			}
		}
	}
}
