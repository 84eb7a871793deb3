package main

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/ppvp"
)

func solidOf(id int64, m *mesh.Mesh) *solid { return newSolid(id, m.Triangles()) }

func TestOracleBoxGap(t *testing.T) {
	a := solidOf(0, mesh.Cube(geom.V(0, 0, 0), geom.V(1, 1, 1)))
	b := solidOf(1, mesh.Cube(geom.V(3, 0.5, 0), geom.V(4, 1.5, 1)))
	if d := math.Sqrt(dist2(a, b, math.Inf(1))); !close9(d, 2) {
		t.Fatalf("gap = %v, want 2", d)
	}
	tab := distTable([]*solid{a}, []*solid{b}, 1.5, 1)
	if len(tab[0]) != 1 || !close9(tab[0][0].Dist, 2) {
		t.Fatalf("table keeps the nearest source beyond the radius: %+v", tab[0])
	}
	if intersects(a, b) {
		t.Fatal("boxes 2 apart intersect")
	}
	touching := solidOf(2, mesh.Cube(geom.V(1, 0, 0), geom.V(2, 1, 1)))
	if !intersects(a, touching) || dist2(a, touching, math.Inf(1)) != 0 {
		t.Fatal("boxes sharing a face must intersect at distance 0")
	}
	inner := solidOf(3, mesh.Cube(geom.V(0.25, 0.25, 0.25), geom.V(0.75, 0.75, 0.75)))
	if !intersects(a, inner) || !intersects(inner, a) {
		t.Fatal("a nested box intersects its container")
	}
}

func TestOraclePointsAndRanges(t *testing.T) {
	s := solidOf(0, mesh.Icosphere(2, 2))
	for _, c := range []struct {
		p    geom.Vec3
		want bool
	}{
		{geom.V(0, 0, 0), true},
		{geom.V(1.5, 0, 0), true},
		{geom.V(2.5, 0, 0), false},
		{geom.V(1.9, 1.9, 1.9), false}, // inside the box, outside the sphere
	} {
		if got := contains(s, c.p); got != c.want {
			t.Errorf("contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		box  geom.Box3
		want bool
	}{
		{geom.Box3{Min: geom.V(1.5, -0.1, -0.1), Max: geom.V(3, 0.1, 0.1)}, true},        // crosses the surface
		{geom.Box3{Min: geom.V(-0.1, -0.1, -0.1), Max: geom.V(0.1, 0.1, 0.1)}, true},     // inside the solid
		{geom.Box3{Min: geom.V(-5, -5, -5), Max: geom.V(5, 5, 5)}, true},                 // holds the solid
		{geom.Box3{Min: geom.V(1.75, 1.75, 1.75), Max: geom.V(1.95, 1.95, 1.95)}, false}, // in the MBB corner only
	} {
		if got := inRange(s, c.box); got != c.want {
			t.Errorf("inRange(%v) = %v, want %v", c.box, got, c.want)
		}
	}
}

// TestOracleUsesEachObjectsTopLOD builds a source dataset in which one
// object compresses to fewer LODs than the rest. The oracle's nearest
// distances must come from every object's own top LOD, so they differ
// from distances computed with all objects capped at the dataset's
// minimum LOD count.
func TestOracleUsesEachObjectsTopLOD(t *testing.T) {
	eng := core.NewEngine(core.EngineOptions{})
	defer eng.Close()
	var targets, sources []*mesh.Mesh
	for i := 0; i < 4; i++ {
		x := float64(i) * 10
		tm := mesh.Icosphere(2, 3)
		tm.Translate(geom.V(x, 0, 0))
		targets = append(targets, tm)
		sm := mesh.Icosphere(2, 3)
		sm.Translate(geom.V(x, 5, 0))
		sources = append(sources, sm)
	}
	// A tetrahedron has too few faces for more than one decimation round.
	tet := mesh.Tetrahedron(1)
	tet.Translate(geom.V(100, 100, 100))
	sources = append(sources, tet)

	opts := core.DatasetOptions{Compression: ppvp.DefaultOptions()}
	td, err := eng.BuildDataset("t", targets, opts)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := eng.BuildDataset("s", sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	top := sd.Tileset.Objects[0].Comp.MaxLOD()
	if sd.MaxLOD() >= top {
		t.Fatalf("dataset LODs %d, sphere LODs %d: the scene needs an object with fewer LODs", sd.MaxLOD()+1, top+1)
	}
	ts, err := decodeTop(td)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := decodeTop(sd)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := decodeAt(sd, func(c *ppvp.Compressed) int { return min(c.MaxLOD(), sd.MaxLOD()) })
	if err != nil {
		t.Fatal(err)
	}
	full := distTable(ts, ss, 0, 1)
	low := distTable(ts, capped, 0, 1)
	differ := 0
	for i := range full {
		if full[i][0].Source != int64(i) {
			t.Errorf("target %d: nearest source %d, want %d", i, full[i][0].Source, i)
		}
		// Full-resolution spheres of radius 2, 5 apart: gap ≈ 1.
		if d := full[i][0].Dist; d < 0.99 || d > 1.1 {
			t.Errorf("target %d: full-resolution distance %v, want ≈1", i, d)
		}
		if !close9(full[i][0].Dist, low[i][0].Dist) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the oracle agrees with the answer at the dataset's minimum LOD")
	}

	// The same scene through the checker: the capped answer must fail.
	want := map[int64][]near{}
	var got []core.Neighbor
	for i := range full {
		want[int64(i)] = full[i]
		got = append(got, core.Neighbor{Target: int64(i), Source: low[i][0].Source, Dist: low[i][0].Dist})
	}
	if err := sameNeighbors(got, want, 1); err == nil {
		t.Fatal("the checker accepts distances computed at the dataset's minimum LOD")
	}
}

func TestCheckerRules(t *testing.T) {
	want := []core.Pair{{Target: 0, Source: 1}, {Target: 1, Source: 2}}
	band := []core.Pair{{Target: 2, Source: 3}}
	if err := samePairs([]core.Pair{{Target: 1, Source: 2}, {Target: 0, Source: 1}}, want, band); err != nil {
		t.Errorf("same pairs in another order: %v", err)
	}
	if err := samePairs([]core.Pair{{Target: 0, Source: 1}, {Target: 1, Source: 2}, {Target: 2, Source: 3}}, want, band); err != nil {
		t.Errorf("a pair at the threshold is accepted either way: %v", err)
	}
	if err := samePairs([]core.Pair{{Target: 0, Source: 1}}, want, band); err == nil {
		t.Error("a missing pair is accepted")
	}
	nb := map[int64][]near{0: {{Source: 5, Dist: 1}, {Source: 6, Dist: 1}, {Source: 7, Dist: 2}}}
	if err := sameNeighbors([]core.Neighbor{{Target: 0, Source: 6, Dist: 1}}, nb, 1); err != nil {
		t.Errorf("a tied neighbor is accepted: %v", err)
	}
	if err := sameNeighbors([]core.Neighbor{{Target: 0, Source: 5, Dist: 1 + 1e-6}}, nb, 1); err == nil {
		t.Error("a distance 1e-6 off is accepted")
	}
	near2 := map[int64][]near{0: {{Source: 5, Dist: 1}, {Source: 6, Dist: 2}}}
	if err := sameNeighbors([]core.Neighbor{{Target: 0, Source: 6, Dist: 1}}, near2, 1); err == nil {
		t.Error("a wrong source at an untied rank is accepted")
	}
}
