package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness check reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyRun is one run's outcome.
type steadyRun struct {
	out   output
	steal float64
}

// steady runs two interleaved sets of runs of the same code per workload,
// each run with its own seed, and reports per metric each set's median and
// quartiles, the spread (quartile distance over median) and whether the
// sets agree within the bounds of BENCHMARK.json.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	names := fs.String("workloads", "joins-warm,sharded", "comma-separated workloads")
	runs := fs.Int("runs", 10, "runs per set")
	seconds := fs.Int("seconds", 0, "timed phase of each run (default: run_seconds of BENCHMARK.json)")
	seed0 := fs.Int64("seed", 1, "first seed; set A uses seed..seed+runs-1, set B the next runs seeds")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	buildDir := fs.String("build-dir", ".bench_build", "directory for build outputs and caches")
	fs.Parse(args)

	b, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range strings.Split(*names, ",") {
		sets := [2][]steadyRun{}
		for i := 0; i < *runs; i++ {
			// Alternate which set runs first.
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, set := range order {
				seed := *seed0 + int64(set**runs+i)
				r, err := steadyOnce(self, w, seed, *seconds, *buildDir)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed, err)
				}
				fmt.Printf("%s set %c seed %d: correct %v attempted %d failed %d steal %.2fs\n", w, 'A'+set, seed, r.out.Correct, r.out.Attempted, r.out.Failed, r.steal)
				sets[set] = append(sets[set], r)
			}
		}
		report(w, spec, sets)
	}
	return nil
}

func steadyOnce(self, w string, seed int64, seconds int, buildDir string) (steadyRun, error) {
	cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "--build-dir", buildDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return steadyRun{}, err
	}
	var r steadyRun
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if v, ok := strings.CutPrefix(line, "steal_s "); ok {
			r.steal, _ = strconv.ParseFloat(strings.Fields(v)[0], 64)
		}
		if line != "" {
			last = line
		}
	}
	return r, json.Unmarshal([]byte(last), &r.out)
}

func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	// The "exclusive" method of Python's statistics.quantiles(n=4).
	at := func(p float64) float64 {
		n := float64(len(s))
		m := p * (n + 1)
		j := int(math.Floor(m))
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func report(w string, spec benchSpec, sets [2][]steadyRun) {
	fmt.Printf("\n%s\n%-26s %-34s %-34s %8s %8s %8s %8s %6s %s\n", w, "metric", "set A q1/median/q3", "set B q1/median/q3", "spreadA", "spreadB", "spreadAB", "drift", "bound", "agree")
	for _, m := range spec.EndToEnd {
		var vals [2][]float64
		for s := range sets {
			for _, r := range sets[s] {
				vals[s] = append(vals[s], r.out.Metrics[m.Name].Value)
			}
		}
		var q [2][3]float64
		var spread [2]float64
		for s := range vals {
			q[s][0], q[s][1], q[s][2] = quartiles(vals[s])
			spread[s] = (q[s][2] - q[s][0]) / q[s][1]
		}
		// Two sets of the same code must agree in either direction, and
		// each set must stay within the bound, setup_s included.
		drift := math.Abs(q[1][1]-q[0][1]) / q[0][1]
		agree := drift <= m.Bound && spread[0] <= m.Bound && spread[1] <= m.Bound
		// The spread of both sets together, as one set of twice the runs.
		a1, a2, a3 := quartiles(append(append([]float64(nil), vals[0]...), vals[1]...))
		fmt.Printf("%-26s %10.4g/%10.4g/%10.4g %10.4g/%10.4g/%10.4g %8.4f %8.4f %8.4f %8.4f %6.3f %v\n", m.Name,
			q[0][0], q[0][1], q[0][2], q[1][0], q[1][1], q[1][2], spread[0], spread[1], (a3-a1)/a2, drift, m.Bound, agree)
	}
	for s := range sets {
		att, fail := 0, 0
		for _, r := range sets[s] {
			att += r.out.Attempted
			fail += r.out.Failed
		}
		fmt.Printf("set %c: failed %d of %d attempted (share %.6f)\n", 'A'+s, fail, att, float64(fail)/float64(att))
	}
}
