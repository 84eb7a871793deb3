// Package mesh implements the polygonal-model substrate of 3DPro: indexed
// triangle meshes (polyhedrons), adjacency queries, manifold validation,
// surface measures, and OFF-format I/O.
//
// A polyhedron in the sense of the paper is a closed, orientable triangle
// mesh with CCW-ordered faces (outer side determined by the right-hand
// rule) and no unnecessary edge junctions.
package mesh

import (
	"fmt"
	"sync/atomic"

	"repro/internal/geom"
)

// Face is a triangle referencing three vertex indices in CCW order as seen
// from outside the polyhedron.
type Face [3]int32

// Mesh is an indexed triangle mesh.
//
// Mesh contains an internal cache and must not be copied by value after
// first use; pass *Mesh around (as all the code in this module does).
type Mesh struct {
	Vertices []geom.Vec3
	Faces    []Face

	// tris lazily memoizes the materialized triangle slice for read-only
	// meshes (decoded LODs queried many times). Mutating methods drop it.
	tris atomic.Pointer[[]geom.Triangle]

	// soa lazily memoizes the struct-of-arrays triangle layout consumed by
	// the batch refinement executor. Same lifecycle as tris.
	soa atomic.Pointer[geom.TriSoA]

	// onMemo, when set, runs after tris or soa is built (see OnMemo).
	onMemo atomic.Pointer[func()]
}

// New returns an empty mesh with the given capacities pre-allocated.
func New(nv, nf int) *Mesh {
	return &Mesh{
		Vertices: make([]geom.Vec3, 0, nv),
		Faces:    make([]Face, 0, nf),
	}
}

// Clone returns a deep copy of the mesh.
func (m *Mesh) Clone() *Mesh {
	c := &Mesh{
		Vertices: make([]geom.Vec3, len(m.Vertices)),
		Faces:    make([]Face, len(m.Faces)),
	}
	copy(c.Vertices, m.Vertices)
	copy(c.Faces, m.Faces)
	return c
}

// NumVertices returns the vertex count.
func (m *Mesh) NumVertices() int { return len(m.Vertices) }

// NumFaces returns the face count.
func (m *Mesh) NumFaces() int { return len(m.Faces) }

// Triangle materializes face f as a geometric triangle.
func (m *Mesh) Triangle(f int) geom.Triangle {
	face := m.Faces[f]
	return geom.Triangle{
		A: m.Vertices[face[0]],
		B: m.Vertices[face[1]],
		C: m.Vertices[face[2]],
	}
}

// Triangles materializes all faces. The result aliases no mesh state.
func (m *Mesh) Triangles() []geom.Triangle {
	out := make([]geom.Triangle, len(m.Faces))
	for i := range m.Faces {
		out[i] = m.Triangle(i)
	}
	return out
}

// TrianglesCached returns the materialized triangle slice, building it at
// most once per mesh state and sharing the result across callers. The
// returned slice is read-only. Concurrent first calls may race to build; the
// duplicate work is benign and bounded to one extra materialization.
func (m *Mesh) TrianglesCached() []geom.Triangle {
	if p := m.tris.Load(); p != nil {
		return *p
	}
	t := m.Triangles()
	m.tris.Store(&t)
	m.memoBuilt()
	return t
}

// SoA returns the struct-of-arrays triangle layout for the current mesh
// state, building it at most once per state and sharing the result across
// callers. The packing reuses TrianglesCached, so a mesh queried through
// both representations materializes each exactly once. The returned value
// is read-only; mutating methods drop it along with the triangle memo.
// Concurrent first calls may race to build; the duplicate work is benign
// and bounded to one extra packing.
func (m *Mesh) SoA() *geom.TriSoA {
	if p := m.soa.Load(); p != nil {
		return p
	}
	s := geom.SoAFromTriangles(m.TrianglesCached())
	m.soa.Store(s)
	m.memoBuilt()
	return s
}

// OnMemo registers f to run after each lazy build of a derived layout
// (TrianglesCached, SoA), so an owner that charges the mesh's
// FootprintBytes — the decode cache — can re-charge it. One hook per mesh;
// a later call replaces it. f must not build the mesh's layouts itself.
func (m *Mesh) OnMemo(f func()) { m.onMemo.Store(&f) }

func (m *Mesh) memoBuilt() {
	if f := m.onMemo.Load(); f != nil {
		(*f)()
	}
}

// FootprintBytes estimates the resident size of the mesh plus whatever
// derived memos (triangle slice, SoA lanes) are currently materialized.
// The cache uses it to account for decoded objects.
func (m *Mesh) FootprintBytes() int64 {
	b := int64(len(m.Vertices))*24 + int64(len(m.Faces))*12
	if p := m.tris.Load(); p != nil {
		b += int64(len(*p)) * 72
	}
	b += m.soa.Load().Bytes()
	return b
}

// invalidateTriangles drops the memoized derived layouts after a mutation.
func (m *Mesh) invalidateTriangles() {
	m.tris.Store(nil)
	m.soa.Store(nil)
}

// Bounds returns the mesh's minimal bounding box (MBB).
func (m *Mesh) Bounds() geom.Box3 {
	b := geom.EmptyBox()
	for _, v := range m.Vertices {
		b = b.ExtendPoint(v)
	}
	return b
}

// SurfaceArea returns the total area of all faces.
func (m *Mesh) SurfaceArea() float64 {
	var a float64
	for i := range m.Faces {
		a += m.Triangle(i).Area()
	}
	return a
}

// Volume returns the signed volume enclosed by the mesh via the divergence
// theorem. For a closed mesh with consistent CCW (outward) orientation the
// result is positive.
func (m *Mesh) Volume() float64 {
	var vol float64
	for _, f := range m.Faces {
		a := m.Vertices[f[0]]
		b := m.Vertices[f[1]]
		c := m.Vertices[f[2]]
		vol += a.Dot(b.Cross(c))
	}
	return vol / 6
}

// Centroid returns the volume centroid of the closed mesh.
func (m *Mesh) Centroid() geom.Vec3 {
	var c geom.Vec3
	var vol float64
	for _, f := range m.Faces {
		a := m.Vertices[f[0]]
		b := m.Vertices[f[1]]
		d := m.Vertices[f[2]]
		v := a.Dot(b.Cross(d))
		vol += v
		c = c.Add(a.Add(b).Add(d).Mul(v / 4))
	}
	if vol == 0 {
		// Fall back to the vertex average for degenerate meshes.
		for _, v := range m.Vertices {
			c = c.Add(v)
		}
		if len(m.Vertices) > 0 {
			return c.Mul(1 / float64(len(m.Vertices)))
		}
		return geom.Vec3{}
	}
	return c.Mul(1 / vol)
}

// ContainsPoint reports whether p lies strictly inside the closed mesh.
func (m *Mesh) ContainsPoint(p geom.Vec3) bool {
	if !m.Bounds().ContainsPoint(p) {
		return false
	}
	return geom.PointInTriangles(p, m.TrianglesCached())
}

// Translate moves every vertex by d.
func (m *Mesh) Translate(d geom.Vec3) {
	for i := range m.Vertices {
		m.Vertices[i] = m.Vertices[i].Add(d)
	}
	m.invalidateTriangles()
}

// Scale scales every vertex about the origin by s.
func (m *Mesh) Scale(s float64) {
	for i := range m.Vertices {
		m.Vertices[i] = m.Vertices[i].Mul(s)
	}
	m.invalidateTriangles()
}

// String implements fmt.Stringer.
func (m *Mesh) String() string {
	return fmt.Sprintf("mesh{%d vertices, %d faces}", len(m.Vertices), len(m.Faces))
}
