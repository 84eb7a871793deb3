package main

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/mesh"
)

// TestGenerateMatchesSuite pins generate to bench.NewSuite: the benchmark
// claims to run the Table 1 data, and a change to the suite's generation
// that generate does not follow must fail here rather than go unnoticed.
func TestGenerateMatchesSuite(t *testing.T) {
	cfg := bench.QuickConfig()
	s, err := bench.NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Engine.Close()
	got := generate(cfg)
	want := map[string][]*mesh.Mesh{
		"nucleiA": s.MeshesA, "nucleiB": s.MeshesB,
		"nuclei1": s.Meshes1, "nuclei2": s.Meshes2,
		"nucleiT": s.MeshesT, "vessels": s.MeshesV,
	}
	for _, name := range datasetNames {
		g, w := got[name], want[name]
		if len(g) != len(w) {
			t.Fatalf("%s: %d meshes, the suite has %d", name, len(g), len(w))
		}
		for i := range w {
			if !slices.Equal(g[i].Vertices, w[i].Vertices) || !slices.Equal(g[i].Faces, w[i].Faces) {
				t.Fatalf("%s mesh %d differs from the suite's", name, i)
			}
		}
	}
}
