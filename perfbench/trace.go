package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
)

// span is one timed call recorded by the benchmark's own code.
type span struct {
	Name      string `json:"name"`
	StartUS   int64  `json:"start_us"`
	EndUS     int64  `json:"end_us"`
	Parent    int    `json:"parent"` // 1-based index of the parent span, 0 = none
	RequestID string `json:"request_id"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// record appends a finished span.
func (t *tracer) record(name, rid string, parent int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartUS: start.Sub(t.t0).Microseconds(), EndUS: end.Sub(t.t0).Microseconds(), Parent: parent, RequestID: rid})
}

// begin opens a span and returns its 1-based index; end closes it.
func (t *tracer) begin(name, rid string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartUS: time.Since(t.t0).Microseconds(), Parent: parent, RequestID: rid})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndUS = time.Since(t.t0).Microseconds()
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name, rid string, parent int, f func()) time.Duration {
	id := t.begin(name, rid, parent)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// queryStats is the part of a response's stats the trace reads.
type queryStats struct {
	Candidates          float64   `json:"candidates"`
	Decodes             float64   `json:"decodes"`
	CacheHits           float64   `json:"cache_hits"`
	WarmStarts          float64   `json:"warm_starts"`
	RoundsApplied       float64   `json:"rounds_applied"`
	RoundsSkipped       float64   `json:"rounds_skipped"`
	BatchesDispatched   float64   `json:"batches_dispatched"`
	BatchPairs          float64   `json:"batch_pairs"`
	LODsSkippedByMargin float64   `json:"lods_skipped_by_margin"`
	BoundsDecisive      float64   `json:"bounds_decisive"`
	Evaluated           []float64 `json:"pairs_evaluated_per_lod"`
	Shards              []struct {
		Stats *queryStats `json:"stats"`
	} `json:"shards"`
}

// timedTransport records every scatter leg of the coordinator, as a span
// under the span in parent.
type timedTransport struct {
	*shard.HTTPTransport
	tr     *tracer
	mu     sync.Mutex // guards parent, rid and legs
	parent int
	rid    string
	legs   []leg
}

func (t *timedTransport) under(parent int, rid string) {
	t.mu.Lock()
	t.parent, t.rid = parent, rid
	t.mu.Unlock()
}

type leg struct {
	d         time.Duration
	loanBytes int
}

func (t *timedTransport) Send(ctx context.Context, s int, req *shard.Request) (*shard.Response, error) {
	t.mu.Lock()
	parent, rid := t.parent, t.rid
	t.mu.Unlock()
	id := t.tr.begin("shard.Send", rid, parent)
	start := time.Now()
	resp, err := t.HTTPTransport.Send(ctx, s, req)
	t.tr.end(id)
	n := 0
	for _, o := range req.Loans {
		n += len(o.Comp.Bytes())
	}
	t.mu.Lock()
	t.legs = append(t.legs, leg{time.Since(start), n})
	t.mu.Unlock()
	return resp, err
}

func (t *timedTransport) take() []leg {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.legs
	t.legs = nil
	return l
}

// traceResult holds the per-layer figures, each per query.
type traceResult struct {
	m map[string]metric
}

func (t *traceResult) metrics(setups []setupTimes) map[string]metric {
	var ing, load, warm []float64
	for _, s := range setups {
		ing = append(ing, s.ingest.Seconds())
		load = append(load, s.load.Seconds())
		warm = append(warm, s.warmup.Seconds())
	}
	t.m["setup.ingest_s"] = metric{median(ing), "s"}
	t.m["setup.load_s"] = metric{median(load), "s"}
	t.m["setup.warmup_s"] = metric{median(warm), "s"}
	return t.m
}

// scrape reads one sample of a /metrics family (0 when absent).
func scrape(base, family string) float64 {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == family {
			v, _ := strconv.ParseFloat(f[1], 64)
			return v
		}
	}
	return 0
}

// traceRun repeats the timed loop with request IDs and the response stats
// kept, then replays each distinct query in this process with spans around
// the calls into each layer: the server handler against the engine (or
// coordinator) call it wraps, the R-tree filter searches and PPVP decodes
// over the objects the query touched, and the scatter legs of a coordinator
// over the running workers. A CPU profile of the direct calls attributes
// the AABB-tree builds.
func traceRun(ctx context.Context, env *runEnv, w *workload, dep *deployment, untraced *loopResult, d time.Duration) (*traceResult, error) {
	tr := &tracer{t0: time.Now()}
	ev0 := scrape(dep.srv.base, "threedpro_cache_evictions_total")
	lr, err := closedLoop(ctx, dep.client, dep.srv.pids(), dep.round, d, true, "pb")
	if err != nil {
		return nil, err
	}
	ev1 := scrape(dep.srv.base, "threedpro_cache_evictions_total")
	bytesUsed := scrape(dep.srv.base, "threedpro_cache_bytes_used")
	n := float64(len(lr.samples))
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// Counts from the response stats, per query.
	var sum queryStats
	var top, workerDecodes, respBytes float64
	statsOf := make([]*queryStats, len(dep.round)) // first stats seen per op
	for i, s := range lr.samples {
		start := lr.t0.Add(s.start)
		tr.record("client."+dep.round[s.op].Kind, "pb-"+strconv.Itoa(s.seq), 0, start, start.Add(s.lat))
		respBytes += float64(s.size)
		if len(lr.stats[i]) == 0 {
			continue
		}
		var st queryStats
		// The stats object is followed by the response's closing brace.
		if err := json.NewDecoder(bytes.NewReader(lr.stats[i])).Decode(&st); err != nil {
			return nil, fmt.Errorf("stats of %v: %w", dep.round[s.op], err)
		}
		if statsOf[s.op] == nil {
			statsOf[s.op] = &st
		}
		sum.Candidates += st.Candidates
		sum.Decodes += st.Decodes
		sum.CacheHits += st.CacheHits
		sum.WarmStarts += st.WarmStarts
		sum.RoundsApplied += st.RoundsApplied
		sum.RoundsSkipped += st.RoundsSkipped
		sum.BatchesDispatched += st.BatchesDispatched
		sum.BatchPairs += st.BatchPairs
		sum.LODsSkippedByMargin += st.LODsSkippedByMargin
		sum.BoundsDecisive += st.BoundsDecisive
		var ev float64
		for _, e := range st.Evaluated {
			ev += e
		}
		if len(st.Evaluated) > 0 {
			top += st.Evaluated[len(st.Evaluated)-1]
		}
		sum.Evaluated = append(sum.Evaluated, ev)
		for _, sh := range st.Shards {
			if sh.Stats != nil {
				workerDecodes += sh.Stats.Decodes
			}
		}
	}
	var evaluated float64
	for _, e := range sum.Evaluated {
		evaluated += e
	}
	put("server.response_kb", "kB", respBytes/1024/n)
	put("core.candidates", "count", sum.Candidates/n)
	put("core.pairs_evaluated", "count", evaluated/n)
	put("core.pairs_evaluated_top", "count", top/n)
	put("core.bounds_decisive", "count", sum.BoundsDecisive/n)
	put("core.lods_skipped_by_margin", "count", sum.LODsSkippedByMargin/n)
	put("gpusim.batches", "count", sum.BatchesDispatched/n)
	ppb := 0.0
	if sum.BatchesDispatched > 0 {
		ppb = sum.BatchPairs / sum.BatchesDispatched
	}
	put("gpusim.pairs_per_batch", "count", ppb)
	put("ppvp.decodes", "count", sum.Decodes/n)
	put("ppvp.rounds_applied", "count", sum.RoundsApplied/n)
	put("ppvp.rounds_skipped", "count", sum.RoundsSkipped/n)
	put("ppvp.warm_starts", "count", sum.WarmStarts/n)
	hit := 0.0
	if sum.CacheHits+sum.Decodes > 0 {
		hit = sum.CacheHits / (sum.CacheHits + sum.Decodes)
	}
	put("cache.hit_ratio", "ratio", hit)
	put("cache.evictions", "count", (ev1-ev0)/n)
	put("cache.bytes_used_mb", "MB", bytesUsed/(1<<20))
	put("shard.worker_decodes", "count", workerDecodes/n)
	p50 := percentile(latenciesMS(lr.samples), 50)
	base := percentile(latenciesMS(untraced.samples), 50)
	put("trace.overhead_pct", "%", (p50/base-1)*100)

	if err := replay(ctx, env, w, dep, statsOf, tr, put); err != nil {
		return nil, err
	}
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(env.workDir, "spans.json"), b, 0o644); err != nil {
		return nil, err
	}
	return &traceResult{m: m}, nil
}

// replay runs every distinct query of the round in this process. Figures
// are per query of the round.
func replay(ctx context.Context, env *runEnv, w *workload, dep *deployment, statsOf []*queryStats, tr *tracer, put func(name, unit string, v float64)) error {
	dataDir := filepath.Join(env.workDir, "data")
	var cacheBytes int64
	if w.server == coldServer {
		cacheBytes = coldCacheBytes
	}
	eng := core.NewEngine(core.EngineOptions{CacheBytes: cacheBytes})
	defer eng.Close()
	logf, err := os.Create(filepath.Join(env.workDir, "replay.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	cfg := server.Config{Logger: log.New(logf, "", log.LstdFlags), Slog: slog.New(slog.NewTextHandler(logf, nil))}
	var srv *server.Server
	var coord *shard.Coordinator
	var tt *timedTransport
	if w.server == shardedServer {
		tt = &timedTransport{HTTPTransport: shard.NewHTTPTransport(dep.srv.workers), tr: tr}
		defer tt.Close()
		coord = shard.NewWithTransport(tt, shard.Options{Shards: len(dep.srv.workers), Replicas: 2})
		defer coord.Close()
		srv = server.NewSharded(coord, cfg)
	} else {
		srv = server.NewWithConfig(eng, cfg)
	}
	dsByName := map[string]*core.Dataset{}
	for _, name := range w.datasets {
		d, err := eng.LoadDataset(filepath.Join(dataDir, name))
		if err != nil {
			return err
		}
		d.Name = name
		dsByName[name] = d
		if err := srv.AddDataset(d); err != nil {
			return err
		}
	}
	handler := srv.Handler()

	reps := 3
	if w.name == "lookups" {
		reps = 15
	}
	opts := func(q query) core.QueryOptions {
		return core.QueryOptions{Paradigm: core.FPR, Accel: core.AABB, K: q.K}
	}
	direct := func(q query) error {
		var err error
		switch {
		case q.Kind == "fetch":
			_, err = dsByName[q.Dataset].Tileset.Object(q.ID).Comp.Decode(q.LOD)
		case coord != nil && q.Kind == "intersect":
			_, _, err = coord.IntersectJoin(ctx, q.Target, q.Source, opts(q))
		case coord != nil && q.Kind == "within":
			_, _, err = coord.WithinJoin(ctx, q.Target, q.Source, q.Dist, opts(q))
		case coord != nil && q.Kind == "nn":
			_, _, err = coord.KNNJoin(ctx, q.Target, q.Source, opts(q))
		case q.Kind == "intersect":
			_, _, err = eng.IntersectJoin(ctx, dsByName[q.Target], dsByName[q.Source], opts(q))
		case q.Kind == "within":
			_, _, err = eng.WithinJoin(ctx, dsByName[q.Target], dsByName[q.Source], q.Dist, opts(q))
		case q.Kind == "nn":
			_, _, err = eng.KNNJoin(ctx, dsByName[q.Target], dsByName[q.Source], opts(q))
		case q.Kind == "point":
			_, _, err = eng.ContainingObjects(ctx, dsByName[q.Dataset], geom.V(q.Point[0], q.Point[1], q.Point[2]), opts(q))
		case q.Kind == "range":
			box := geom.Box3{Min: geom.V(q.Min[0], q.Min[1], q.Min[2]), Max: geom.V(q.Max[0], q.Max[1], q.Max[2])}
			_, _, err = eng.RangeQuery(ctx, dsByName[q.Dataset], box, opts(q))
		}
		return err
	}
	viaHandler := func(q query, rid string) error {
		method, path, body := q.request()
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set("X-Request-ID", rid)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%v: HTTP %d", q, rec.Code)
		}
		return nil
	}

	var selfMS, engineMS, coordSelfMS, legMax, calls, reqKB float64
	var filterMS, decodeMS float64
	nq := float64(len(dep.round))
	for op, q := range dep.round {
		rid := "replay-" + strconv.Itoa(op)
		root := tr.begin("replay."+q.Kind, rid, 0)
		if tt != nil {
			tt.under(root, rid)
		}
		// Settle caches and the calibrator for this query first.
		if err := viaHandler(q, rid); err != nil {
			return err
		}
		if err := direct(q); err != nil {
			return err
		}
		if tt != nil {
			tt.take()
		}
		var hs, ds []float64
		var opLegMax, opCalls, opLoanKB, opCoordSelf []float64
		for r := 0; r < reps; r++ {
			var herr, derr error
			h := timedLegs(tr, tt, "server.Handler", rid, root, func() { herr = viaHandler(q, rid) })
			if tt != nil {
				tt.take()
			}
			layer := "core.Engine." + q.Kind
			if coord != nil && q.Kind != "fetch" {
				layer = "shard.Coordinator." + q.Kind
			}
			dd := timedLegs(tr, tt, layer, rid, root, func() { derr = direct(q) })
			if herr != nil || derr != nil {
				return fmt.Errorf("replay %v: %v %v", q, herr, derr)
			}
			hs = append(hs, float64(h)/1e6)
			ds = append(ds, float64(dd)/1e6)
			if tt != nil {
				var mx time.Duration
				var kb float64
				legs := tt.take()
				for _, l := range legs {
					mx = max(mx, l.d)
					kb += float64(l.loanBytes) / 1024
				}
				opLegMax = append(opLegMax, float64(mx)/1e6)
				opCalls = append(opCalls, float64(len(legs)))
				opLoanKB = append(opLoanKB, kb)
				opCoordSelf = append(opCoordSelf, float64(dd-mx)/1e6)
			}
		}
		selfMS += median(hs) - median(ds)
		if coord == nil {
			engineMS += median(ds)
		} else {
			legMax += median(opLegMax)
			calls += median(opCalls)
			reqKB += median(opLoanKB)
			coordSelfMS += median(opCoordSelf)
		}

		// Filter replay over the query's targets, collecting the objects
		// the query touched.
		touched := map[*storage.Object]bool{}
		f := tr.timed("rtree.filter", rid, root, func() { touch(q, dsByName, touched) })
		filterMS += float64(f) / 1e6

		st := statsOf[op]
		if st == nil || (q.Kind != "intersect" && q.Kind != "within" && q.Kind != "nn") {
			tr.end(root)
			continue
		}
		// PPVP decodes replayed over the touched objects at every LOD the
		// query evaluated pairs at.
		var lods []int
		for l, e := range st.Evaluated {
			if e > 0 {
				lods = append(lods, l)
			}
		}
		var opDecode time.Duration
		var opDecodes int
		for o := range touched {
			dec, err := o.Comp.NewDecoder()
			if err != nil {
				return err
			}
			for _, l := range lods {
				var derr error
				opDecode += tr.timed("ppvp.DecodeTo", rid, root, func() { _, derr = dec.DecodeTo(min(l, o.Comp.MaxLOD())) })
				if derr != nil {
					return derr
				}
				opDecodes++
			}
		}
		if opDecodes > 0 {
			// The replay decodes every touched object once per LOD; the
			// query paid that cost only for the decodes its stats report.
			decodeMS += float64(opDecode) / 1e6 / float64(opDecodes) * st.Decodes
		}
		tr.end(root)
	}

	// AABB-tree builds are measured inside the engine: a CPU profile of
	// this process around the round's direct calls, attributing the samples
	// with aabbtree.BuildSoA on the stack. In sharded the trees are built in
	// the worker processes, outside the profile, and this reads 0.
	nDirect := 0
	prof := tr.begin("profile.direct", "replay-profile", 0)
	total, build, err := cpuProfile("repro/internal/index/aabbtree.BuildSoA", func() error {
		for r := 0; r < reps; r++ {
			for _, q := range dep.round {
				if err := direct(q); err != nil {
					return fmt.Errorf("replay %v: %w", q, err)
				}
				nDirect++
			}
		}
		return nil
	})
	tr.end(prof)
	if err != nil {
		return err
	}
	buildPct := 0.0
	if total > 0 {
		buildPct = 100 * float64(build) / float64(total)
	}
	put("aabbtree.build_ms", "ms", float64(build)/1e6/float64(nDirect))
	put("aabbtree.build_cpu_pct", "%", buildPct)
	put("server.self_ms", "ms", selfMS/nq)
	put("core.engine_ms", "ms", engineMS/nq)
	put("shard.calls", "count", calls/nq)
	put("shard.leg_ms_max", "ms", legMax/nq)
	put("shard.coordinator_self_ms", "ms", coordSelfMS/nq)
	put("shard.request_kb", "kB", reqKB/nq)
	put("rtree.filter_ms", "ms", filterMS/nq)
	put("ppvp.decode_ms", "ms", decodeMS/nq)
	return nil
}

// timedLegs runs f inside a span that the coordinator's scatter legs, if
// any, record as their parent.
func timedLegs(tr *tracer, tt *timedTransport, name, rid string, parent int, f func()) time.Duration {
	id := tr.begin(name, rid, parent)
	if tt != nil {
		tt.under(id, rid)
	}
	start := time.Now()
	f()
	d := time.Since(start)
	tr.end(id)
	return d
}

// touch runs q's R-tree filter step for every target and marks the
// objects with candidates on either side.
func touch(q query, ds map[string]*core.Dataset, touched map[*storage.Object]bool) {
	switch q.Kind {
	case "point", "range":
		d := ds[q.Dataset]
		box := geom.Box3{Min: geom.V(q.Min[0], q.Min[1], q.Min[2]), Max: geom.V(q.Max[0], q.Max[1], q.Max[2])}
		if q.Kind == "point" {
			box = geom.BoxOf(geom.V(q.Point[0], q.Point[1], q.Point[2]))
		}
		d.Tree().SearchIntersect(box, func(e rtree.Entry) bool {
			touched[d.Tileset.Object(e.ID)] = true
			return true
		})
		return
	case "fetch":
		return
	}
	t, s := ds[q.Target], ds[q.Source]
	for _, o := range t.Tileset.Objects {
		var ids []int64
		switch q.Kind {
		case "intersect":
			s.Tree().SearchIntersect(o.MBB(), func(e rtree.Entry) bool {
				ids = append(ids, e.ID)
				return true
			})
		case "within":
			r := s.Tree().SearchWithin(o.MBB(), q.Dist)
			for _, e := range r.Candidates {
				ids = append(ids, e.ID)
			}
		case "nn":
			for _, c := range s.Tree().NNCandidates(o.MBB(), max(q.K, 1), nil) {
				ids = append(ids, c.ID)
			}
		}
		if len(ids) > 0 {
			touched[o] = true
		}
		for _, id := range ids {
			touched[s.Tileset.Object(id)] = true
		}
	}
}
