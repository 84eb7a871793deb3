package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// setupTimes are the phases of one set-up.
type setupTimes struct {
	ingest, load, warmup time.Duration
}

func (s setupTimes) total() time.Duration { return s.ingest + s.load + s.warmup }

// deployment is a workload's running servers with its ingested datasets.
type deployment struct {
	srv      *servers
	client   *client
	datasets map[string]*core.Dataset
	round    []query
}

func (d *deployment) stop() {
	d.client.close()
	d.srv.stop()
}

// setUp ingests the datasets, starts the servers, and warms them up with
// passes over the round.
func setUp(ctx context.Context, env *runEnv, w *workload, seed int64, in *inputs) (*deployment, setupTimes, error) {
	var st setupTimes
	cfg := tableConfig(dataSeed)
	dataDir := filepath.Join(env.workDir, "data")
	t0 := time.Now()
	datasets, err := ingest(cfg, w.datasets, in.meshes, dataDir)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	srv, err := startServers(ctx, w, env, dataDir)
	if err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	d := &deployment{srv: srv, client: newClient(srv.base), datasets: datasets, round: roundFor(w, seed, in, datasets)}
	// Warm-up passes over the round until a pass decodes nothing or no
	// less than the one before: the scheduler may visit a new LOD on a
	// later pass, and a cache below the working set never stops decoding.
	prev := math.Inf(1)
	for pass := 0; pass < 3; pass++ {
		decodes := 0.0
		for _, q := range d.round {
			_, body, err := d.client.do(ctx, q, "")
			if err != nil {
				d.stop()
				return nil, st, fmt.Errorf("warm-up %v: %w", q, err)
			}
			var qs struct{ Decodes float64 }
			if _, sj := splitAnswer(body); sj != nil && json.NewDecoder(bytes.NewReader(sj)).Decode(&qs) == nil {
				decodes += qs.Decodes
			}
		}
		if decodes == 0 || decodes >= prev {
			break
		}
		prev = decodes
	}
	t3 := time.Now()
	return d, setupTimes{ingest: t1.Sub(t0), load: t2.Sub(t1), warmup: t3.Sub(t2)}, nil
}

func roundFor(w *workload, seed int64, in *inputs, datasets map[string]*core.Dataset) []query {
	if w.name != "lookups" {
		return joinQueries(seed)
	}
	top := map[string][]int{}
	for n, d := range datasets {
		for _, o := range d.Tileset.Objects {
			top[n] = append(top[n], o.Comp.MaxLOD())
		}
	}
	return lookupQueries(seed, tableConfig(dataSeed).Space, in.meshes, top)
}

func run(env *runEnv, w *workload, seed int64, d time.Duration, trace bool) (*result, error) {
	ctx := context.Background()
	env.workDir = filepath.Join(env.buildDir, "perfbench", "run-"+w.name)
	if err := os.RemoveAll(env.workDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(env.workDir, 0o755); err != nil {
		return nil, err
	}
	steal0, wall0 := stealTime(), time.Now()
	in := generateInputs()

	var dep *deployment
	var setups []setupTimes
	for r := 0; r < setupsPerRun; r++ {
		if dep != nil {
			dep.stop()
		}
		var st setupTimes
		var err error
		dep, st, err = setUp(ctx, env, w, seed, in)
		if err != nil {
			return nil, err
		}
		setups = append(setups, st)
	}
	defer dep.stop()

	pids := dep.srv.pids()
	lr, err := closedLoop(ctx, dep.client, pids, dep.round, d, false, "")
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS(pids)
	if err != nil {
		return nil, err
	}

	res := &result{out: output{Metrics: map[string]metric{}}, failures: map[string]string{}}
	var tr *traceResult
	if trace {
		tr, err = traceRun(ctx, env, w, dep, lr, d)
		if err != nil {
			return nil, err
		}
	}
	dep.stop()

	t0 := time.Now()
	answers, cached, err := loadOracle(filepath.Join(env.buildDir, "perfbench", "oracle"), dep.datasets, dep.round, false)
	if err != nil {
		return nil, err
	}
	oracleTime := time.Since(t0)
	bad := map[answerKey]bool{}
	for k, body := range lr.bodies {
		q := dep.round[k.op]
		if err := check(q, body, answers[q.String()], in.genFaces); err != nil {
			bad[k] = true
			res.failures[q.String()] = err.Error()
		}
	}
	res.out.Correct = true
	unknown := map[string]bool{}
	for _, s := range lr.samples {
		res.out.Attempted++
		q := dep.round[s.op].String()
		if s.status < 200 || s.status > 299 {
			res.out.Failed++
			res.out.Correct = false
			res.failures[q] = fmt.Sprintf("HTTP %d", s.status)
		} else if bad[answerKey{s.op, s.digest}] {
			res.out.Failed++
			if !knownFaults[q] {
				res.out.Correct = false
				unknown[q] = true
			}
		}
	}
	for q := range unknown {
		res.failures[q] += " (not a known fault)"
	}

	// The end-to-end figures come from the quieter half of the loop's
	// one-second windows: interference from other tenants of the machine
	// (hypervisor steal) comes in bursts that would otherwise dominate the
	// run-to-run spread.
	quiet := quietWindows(lr.windows(len(dep.round), time.Second))
	var kept []sample
	var qps, cpuMS []float64
	for _, wd := range quiet {
		qps = append(qps, float64(wd.ops)/wd.wall.Seconds())
		cpuMS = append(cpuMS, float64(wd.cpu)/float64(time.Millisecond)/float64(wd.ops))
		for _, s := range lr.samples {
			if r := s.seq / len(dep.round); r >= wd.firstRound && r < wd.endRound {
				kept = append(kept, s)
			}
		}
	}
	n := float64(len(kept))
	lat := latenciesMS(kept)
	var setupS []float64
	for _, st := range setups {
		setupS = append(setupS, st.total().Seconds())
	}
	if trace {
		res.out.Metrics = tr.metrics(setups)
	} else {
		m := res.out.Metrics
		m["throughput_qps"] = metric{median(qps), "1/s"}
		m["latency_p50_ms"] = metric{percentile(lat, 50), "ms"}
		m["latency_tail_ms"] = metric{percentile(lat, w.tailPct), "ms"}
		m["server_cpu_ms_per_query"] = metric{median(cpuMS), "ms"}
		m["server_rss_mb"] = metric{rss, "MB"}
		m["setup_s"] = metric{median(setupS), "s"}
	}
	if beyond := n * (1 - w.tailPct/100); beyond < 10 {
		res.notes = append(res.notes, fmt.Sprintf("warning: only %.0f samples beyond p%g", beyond, w.tailPct))
	}
	perOp := make([][]sample, len(dep.round))
	for _, s := range lr.samples {
		perOp[s.op] = append(perOp[s.op], s)
	}
	for op, ss := range perOp {
		res.notes = append(res.notes, fmt.Sprintf("p50 %9.3f ms  %v", percentile(latenciesMS(ss), 50), dep.round[op]))
		if op == 9 && len(perOp) > 12 {
			res.notes = append(res.notes, fmt.Sprintf("... %d more ops", len(perOp)-10))
			break
		}
	}
	for i, st := range setups {
		res.notes = append(res.notes, fmt.Sprintf("setup %d: ingest %.3f s, load %.3f s, warm-up %.3f s", i, st.ingest.Seconds(), st.load.Seconds(), st.warmup.Seconds()))
	}
	res.notes = append(res.notes,
		fmt.Sprintf("samples %d in %d rounds of %d; %d samples in the %d quieter of %d windows; tail = p%g (p99.9 %.3f ms)",
			len(lr.samples), len(lr.samples)/len(dep.round), len(dep.round), len(kept), len(quiet), len(lr.windows(len(dep.round), time.Second)), w.tailPct, percentile(lat, 99.9)),
		fmt.Sprintf("reference: mesh generation %.3f s, oracle %.3f s (cached %v)", in.genTime.Seconds(), oracleTime.Seconds(), cached),
		fmt.Sprintf("steal_s %.3f of wall %.3f s", (stealTime()-steal0).Seconds(), time.Since(wall0).Seconds()))
	return res, nil
}
