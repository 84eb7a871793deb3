// Command perfbench is the repository's end-to-end benchmark: it generates
// the Table 1 datasets and seeded request sequences, ingests the datasets,
// starts 3dpro-server in processes of its own, drives them over HTTP with a
// closed-loop load generator, and checks every answer against a
// brute-force full-resolution oracle. See README.md.
//
//	perfbench --workload joins-warm --seed 1 --seconds 15 --trace 0
//	perfbench oracle --seed 1       recompute the cached oracle answers
//	perfbench steady ...            two interleaved sets of runs, compared
//	perfbench describe --seed 1     print the inputs of every workload
//	perfbench serve ...             the joins-cold server (started by runs)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runEnv locates the binaries and the scratch space of a run.
type runEnv struct {
	serverBin string // 3dpro-server
	selfBin   string // this binary
	buildDir  string // build outputs and caches, kept between runs
	workDir   string // this run's scratch directory
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			exitOn(serve(os.Args[2:]))
			return
		case "steady":
			exitOn(steady(os.Args[2:]))
			return
		case "oracle", "describe":
			exitOn(oracleCmd(os.Args[1], os.Args[2:]))
			return
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload name, or \"all\" (one JSON line per workload)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 15, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	serverBin := fs.String("server-bin", "", "path of the 3dpro-server binary")
	buildDir := fs.String("build-dir", ".bench_build", "directory for build outputs and caches")
	fs.Parse(os.Args[1:])

	env, err := newEnv(*serverBin, *buildDir)
	exitOn(err)
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := findWorkload(*name)
		exitOn(err)
		ws = []*workload{w}
	}
	// Each workload's summary ends with its own JSON line.
	for _, w := range ws {
		res, err := run(env, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		exitOn(err)
		res.print(os.Stdout, w)
		b, err := json.Marshal(res.out)
		exitOn(err)
		fmt.Println(string(b))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newEnv(serverBin, buildDir string) (*runEnv, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if serverBin == "" {
		serverBin = filepath.Join(filepath.Dir(self), "3dpro-server")
	}
	if _, err := os.Stat(serverBin); err != nil {
		return nil, fmt.Errorf("3dpro-server binary: %w", err)
	}
	bd, err := filepath.Abs(buildDir)
	if err != nil {
		return nil, err
	}
	return &runEnv{serverBin: serverBin, selfBin: self, buildDir: bd}, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the JSON line a run ends with.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	out      output
	notes    []string          // human-readable lines printed before the JSON
	failures map[string]string // failing query → reason
}

func (r *result) print(f *os.File, w *workload) {
	fmt.Fprintf(f, "workload %s: %d attempted, %d failed\n", w.name, r.out.Attempted, r.out.Failed)
	names := make([]string, 0, len(r.out.Metrics))
	for n := range r.out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.out.Metrics[n]
		fmt.Fprintf(f, "  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	qs := make([]string, 0, len(r.failures))
	for q := range r.failures {
		qs = append(qs, q)
	}
	sort.Strings(qs)
	for _, q := range qs {
		fmt.Fprintf(f, "  failed: %s: %s\n", q, r.failures[q])
	}
	for _, n := range r.notes {
		fmt.Fprintf(f, "  %s\n", n)
	}
}
