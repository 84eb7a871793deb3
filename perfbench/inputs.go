package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// oracleCmd implements two commands over the inputs of each workload:
// "oracle" recomputes and re-caches the oracle answers, and "describe"
// prints the inputs: object and face counts, the per-object LOD histogram
// and the decoded working set against the decode-cache budget.
func oracleCmd(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	names := fs.String("workloads", "joins-warm,lookups", "comma-separated workloads (the join workloads share their inputs)")
	buildDir := fs.String("build-dir", ".bench_build", "directory for build outputs and caches")
	fs.Parse(args)
	bd, err := filepath.Abs(*buildDir)
	if err != nil {
		return err
	}
	for _, name := range strings.Split(*names, ",") {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		in := generateInputs()
		dir := filepath.Join(bd, "perfbench", cmd+"-"+w.name)
		datasets, err := ingest(tableConfig(dataSeed), w.datasets, in.meshes, filepath.Join(dir, "data"))
		if err != nil {
			return err
		}
		round := roundFor(w, *seed, in, datasets)
		if cmd == "oracle" {
			start := time.Now()
			if _, _, err := loadOracle(filepath.Join(bd, "perfbench", "oracle"), datasets, round, true); err != nil {
				return err
			}
			fmt.Printf("%s seed %d: oracle for %d queries recomputed in %.2f s\n", w.name, *seed, len(round), time.Since(start).Seconds())
		} else {
			fmt.Printf("%s (data seed %d): %d queries per round\n", w.name, dataSeed, len(round))
			var working int64
			for _, dn := range w.datasets {
				d := datasets[dn]
				hist := map[int]int{}
				faces, minF, maxF := 0, 1<<30, 0
				for i, o := range d.Tileset.Objects {
					hist[o.Comp.NumLODs()]++
					f := in.genFaces[dn][i]
					faces += f
					minF, maxF = min(minF, f), max(maxF, f)
					for l := 0; l <= o.Comp.MaxLOD(); l++ {
						m, err := o.Comp.Decode(l)
						if err != nil {
							return err
						}
						m.SoA()
						working += m.FootprintBytes()
					}
				}
				lods := make([]int, 0, len(hist))
				for l := range hist {
					lods = append(lods, l)
				}
				sort.Ints(lods)
				var hs []string
				for _, l := range lods {
					hs = append(hs, fmt.Sprintf("%d LODs: %d", l, hist[l]))
				}
				fmt.Printf("  %-8s %3d objects, %6d faces (%d-%d per object), %7.1f KB compressed, dataset LODs %d; %s\n",
					dn, d.Len(), faces, minF, maxF, float64(d.CompressedBytes())/1024, d.MaxLOD()+1, strings.Join(hs, ", "))
			}
			fmt.Printf("  decoded working set, every object at every LOD: %.1f MB (decode cache: 256 MB default, %.1f MB in joins-cold)\n",
				float64(working)/(1<<20), float64(coldCacheBytes)/(1<<20))
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}
