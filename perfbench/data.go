package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/ppvp"
)

// datasetNames lists the six Table 1 datasets in generation order:
//
//	nucleiA, nucleiB — overlapping nuclei sets (INT-NN);
//	nuclei1, nuclei2 — interior-disjoint nuclei sets (WN-NN, NN-NN);
//	nucleiT, vessels — one tissue, nuclei around vessels (WN-NV, NN-NV).
var datasetNames = []string{"nucleiA", "nucleiB", "nuclei1", "nuclei2", "nucleiT", "vessels"}

// tableConfig is bench.DefaultConfig with the workload seed: 96 nuclei per
// set, 8 vessels, 10 PPVP rounds (6 LODs).
func tableConfig(seed int64) bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// generate builds the raw meshes of the six datasets exactly as
// bench.NewSuite does, without ingesting them, so that mesh generation is
// kept out of the timed set-up.
func generate(cfg bench.Config) map[string][]*mesh.Mesh {
	out := make(map[string][]*mesh.Mesh, len(datasetNames))
	genA := datagen.NucleiOptions{
		Count: cfg.NucleiCount, SubdivisionLevel: cfg.NucleiLevel,
		Space: cfg.Space, Seed: cfg.Seed,
	}
	out["nucleiA"] = datagen.Nuclei(genA)
	genB := genA
	genB.Seed = cfg.Seed + 1
	k := 1
	for k*k*k < cfg.NucleiCount {
		k++
	}
	cell := cfg.Space.Size().X / float64(k)
	genB.Offset = geom.V(0.22*cell, 0.16*cell, 0.12*cell)
	out["nucleiB"] = datagen.Nuclei(genB)

	gen1 := genA
	gen1.Seed = cfg.Seed + 2
	out["nuclei1"], out["nuclei2"] = datagen.NucleiPair(gen1)

	out["nucleiT"], out["vessels"] = datagen.Tissue(datagen.TissueOptions{
		Nuclei: datagen.NucleiOptions{
			Count: cfg.NucleiCount, SubdivisionLevel: cfg.NucleiLevel,
			Space: cfg.Space, Seed: cfg.Seed + 3,
		},
		Vessels: datagen.VesselOptions{
			Count: cfg.VesselCount, Space: cfg.Space, Seed: cfg.Seed + 4,
			RingSegments: cfg.VesselRingSegments, PathPoints: cfg.VesselPathPoints,
		},
	})
	return out
}

func datasetOptions(cfg bench.Config) core.DatasetOptions {
	comp := ppvp.DefaultOptions()
	comp.Rounds = cfg.Rounds
	return core.DatasetOptions{Compression: comp, Cuboids: cfg.Cuboids}
}

// ingest compresses, indexes and persists every dataset under dir/<name>,
// the form 3dpro-server loads with -dataset name=dir. It returns the
// in-memory datasets, whose compressed objects the oracle decodes.
func ingest(cfg bench.Config, names []string, meshes map[string][]*mesh.Mesh, dir string) (map[string]*core.Dataset, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	eng := core.NewEngine(core.EngineOptions{})
	defer eng.Close()
	out := make(map[string]*core.Dataset, len(names))
	for _, name := range names {
		d, err := eng.BuildDataset(name, meshes[name], datasetOptions(cfg))
		if err != nil {
			return nil, fmt.Errorf("ingest %s: %w", name, err)
		}
		if err := d.SaveDataset(filepath.Join(dir, name)); err != nil {
			return nil, fmt.Errorf("persist %s: %w", name, err)
		}
		out[name] = d
	}
	return out, nil
}

// datasetFlags returns the 3dpro-server -dataset arguments for the
// persisted datasets under dir.
func datasetFlags(dir string, names []string) []string {
	var args []string
	for _, name := range names {
		args = append(args, "-dataset", name+"="+filepath.Join(dir, name))
	}
	return args
}

// inputs are the generated meshes of the six datasets.
type inputs struct {
	meshes   map[string][]*mesh.Mesh
	genFaces map[string][]int
	genTime  time.Duration
}

// generateInputs generates the meshes, timing it as a reference figure.
func generateInputs() *inputs {
	cfg := tableConfig(dataSeed)
	start := time.Now()
	in := &inputs{meshes: generate(cfg), genFaces: map[string][]int{}}
	in.genTime = time.Since(start)
	for n, ms := range in.meshes {
		for _, m := range ms {
			in.genFaces[n] = append(in.genFaces[n], m.NumFaces())
		}
	}
	return in
}
