package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"

	"repro/internal/geom"
	"repro/internal/mesh"
)

// dataSeed generates the datasets of every workload. It is
// bench.DefaultConfig's own seed and does not follow --seed: the
// minimum-LOD fault makes some join and range answers wrong, and which ones
// depends on the data, so only fixed data makes the failed share the same
// in every run. --seed drives the query sequences.
const dataSeed = 42

// coldCacheBytes is the decode-cache budget of joins-cold: a third of the
// ≈3 MB the join round keeps decoded with the default budget, so the LRU
// thrashes.
const coldCacheBytes = 1 << 20

// setupsPerRun is how many times a run sets the servers up; setup_s is the
// median. A set-up of the six datasets takes 7-10 s, and the runs of the
// benchmark must fit its time budget.
const setupsPerRun = 3

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	// tailPct is the latency percentile reported as latency_tail_ms; a
	// run must leave at least ten samples beyond it.
	tailPct float64
	// datasets the server loads.
	datasets []string
	server   serverKind
}

type serverKind int

const (
	singleServer  serverKind = iota // 3dpro-server over one engine
	coldServer                      // this binary's serve command, small cache
	shardedServer                   // 3dpro-server coordinator + 2 workers
)

var workloads = []*workload{
	{name: "joins-warm", tailPct: 85, datasets: datasetNames, server: singleServer},
	{name: "joins-cold", tailPct: 85, datasets: datasetNames, server: coldServer},
	{name: "lookups", tailPct: 99.5, datasets: []string{"nucleiT", "vessels"}, server: singleServer},
	{name: "sharded", tailPct: 75, datasets: datasetNames, server: shardedServer},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// query is one HTTP request of a workload sequence.
type query struct {
	Kind           string // intersect|within|nn|point|range|fetch
	Target, Source string // joins
	Dist           float64
	K              int
	Dataset        string // point, range, fetch
	Point          [3]float64
	Min, Max       [3]float64
	ID             int64 // fetch
	LOD            int
	TopLOD         int // the fetched object's own highest LOD
}

func (q query) String() string {
	switch q.Kind {
	case "intersect":
		return fmt.Sprintf("INT %s/%s", q.Target, q.Source)
	case "within":
		return fmt.Sprintf("WN %s/%s dist=%g", q.Target, q.Source, q.Dist)
	case "nn":
		return fmt.Sprintf("NN %s/%s k=%d", q.Target, q.Source, q.K)
	case "point":
		return fmt.Sprintf("point %s %v", q.Dataset, q.Point)
	case "range":
		return fmt.Sprintf("range %s [%.3f %.3f %.3f]-[%.3f %.3f %.3f]", q.Dataset, q.Min[0], q.Min[1], q.Min[2], q.Max[0], q.Max[1], q.Max[2])
	default:
		return fmt.Sprintf("fetch %s/%d lod=%d", q.Dataset, q.ID, q.LOD)
	}
}

// request returns the HTTP method, path and body of q.
func (q query) request() (method, path string, body []byte) {
	type joinBody struct {
		Target string  `json:"target"`
		Source string  `json:"source"`
		Dist   float64 `json:"dist,omitempty"`
		K      int     `json:"k,omitempty"`
	}
	type idBody struct {
		Dataset string      `json:"dataset"`
		Point   *[3]float64 `json:"point,omitempty"`
		Min     *[3]float64 `json:"min,omitempty"`
		Max     *[3]float64 `json:"max,omitempty"`
	}
	var v any
	switch q.Kind {
	case "intersect", "within", "nn":
		v = joinBody{Target: q.Target, Source: q.Source, Dist: q.Dist, K: q.K}
	case "point":
		v = idBody{Dataset: q.Dataset, Point: &q.Point}
	case "range":
		v = idBody{Dataset: q.Dataset, Min: &q.Min, Max: &q.Max}
	default:
		return "GET", fmt.Sprintf("/datasets/%s/objects/%d?lod=%d", url.PathEscape(q.Dataset), q.ID, q.LOD), nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of numbers and strings always encode
	}
	return "POST", "/query/" + q.Kind, b
}

// joinQueries is the round of the join workloads: the five Table 1
// pairings, with dist and k varied, in a fixed order that alternates the
// dataset pairs. --seed picks where the cycle starts. The order itself does
// not follow the seed: under the small cache of joins-cold it decides which
// decoded meshes survive from one query to the next, so a seeded shuffle
// would change the work of a run. The count is odd so that the median
// latency falls inside one query's spread rather than on the gap between
// two.
func joinQueries(seed int64) []query {
	qs := []query{
		{Kind: "intersect", Target: "nucleiA", Source: "nucleiB"},
		{Kind: "within", Target: "nuclei1", Source: "nuclei2", Dist: 6},
		{Kind: "within", Target: "nucleiT", Source: "vessels", Dist: 4},
		{Kind: "nn", Target: "nuclei1", Source: "nuclei2", K: 1},
		{Kind: "within", Target: "nucleiT", Source: "vessels", Dist: 6},
		{Kind: "within", Target: "nuclei1", Source: "nuclei2", Dist: 8},
		{Kind: "nn", Target: "nucleiT", Source: "vessels", K: 1},
		{Kind: "within", Target: "nucleiT", Source: "vessels", Dist: 8},
		{Kind: "nn", Target: "nucleiT", Source: "vessels", K: 3},
	}
	k := int(uint64(seed) % uint64(len(qs)))
	return append(qs[k:], qs[:k]...)
}

// lookupQueries builds the lookups round on the tissue datasets: point
// queries at nucleus centroids and in space no nucleus box covers, range
// boxes from edge 2 up to an eighth of the space, and progressive fetches
// of a few objects at every LOD in ascending order. The seed picks the
// points, the fetched nuclei and the order. The range boxes and the fetched
// vessel are the same for every seed: the minimum-LOD fault makes some
// boxes fail, and a seeded set would fail a different share in every run;
// vessels differ in size, and a seeded one would change the round's work.
func lookupQueries(seed int64, space geom.Box3, meshes map[string][]*mesh.Mesh, topLOD map[string][]int) []query {
	rng := rand.New(rand.NewSource(seed))
	boxRng := rand.New(rand.NewSource(dataSeed))
	nuclei := meshes["nucleiT"]
	var boxes []geom.Box3
	for _, m := range nuclei {
		boxes = append(boxes, m.Bounds())
	}
	size := space.Size()
	randPoint := func() geom.Vec3 {
		return geom.V(space.Min.X+rng.Float64()*size.X, space.Min.Y+rng.Float64()*size.Y, space.Min.Z+rng.Float64()*size.Z)
	}
	vec := func(v geom.Vec3) [3]float64 { return [3]float64{v.X, v.Y, v.Z} }

	var qs []query
	for i := 0; i < 32; i++ {
		c := nuclei[rng.Intn(len(nuclei))].Centroid()
		qs = append(qs, query{Kind: "point", Dataset: "nucleiT", Point: vec(c)})
	}
	for n := 0; n < 32; {
		p := randPoint()
		covered := false
		for _, b := range boxes {
			if b.ContainsPoint(p) {
				covered = true
				break
			}
		}
		if !covered {
			qs = append(qs, query{Kind: "point", Dataset: "nucleiT", Point: vec(p)})
			n++
		}
	}
	maxEdge := size.X / 2 // an eighth of the space's volume
	for i := 0; i < 32; i++ {
		edge := 2 * math.Pow(maxEdge/2, boxRng.Float64())
		c := geom.V(space.Min.X+boxRng.Float64()*size.X, space.Min.Y+boxRng.Float64()*size.Y, space.Min.Z+boxRng.Float64()*size.Z)
		h := geom.V(edge/2, edge/2, edge/2)
		ds := "nucleiT"
		if i%4 == 3 {
			ds = "vessels"
		}
		qs = append(qs, query{Kind: "range", Dataset: ds, Min: vec(c.Sub(h)), Max: vec(c.Add(h))})
	}
	for _, f := range []struct {
		ds string
		n  int
	}{{"nucleiT", 3}, {"vessels", 1}} {
		for i := 0; i < f.n; i++ {
			// Nuclei all have the same face count, vessels do not: the
			// vessel comes from the fixed seed, so that every seed's round
			// does the same work.
			id := rng.Intn(len(meshes[f.ds]))
			if f.ds == "vessels" {
				id = boxRng.Intn(len(meshes[f.ds]))
			}
			// LODs 0-3 and the object's own top: the same number of
			// fetches whatever the object, so every round is as long.
			top := topLOD[f.ds][id]
			for _, l := range []int{0, 1, 2, 3, top} {
				qs = append(qs, query{Kind: "fetch", Dataset: f.ds, ID: int64(id), LOD: l, TopLOD: top})
			}
		}
	}
	// Interleave the kinds, keeping each object's fetches in LOD order.
	var fetches, rest []query
	for _, q := range qs {
		if q.Kind == "fetch" {
			fetches = append(fetches, q)
		} else {
			rest = append(rest, q)
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	out := make([]query, 0, len(qs))
	step := len(rest) / (len(fetches) + 1)
	for i, f := range fetches {
		out = append(out, rest[i*step:(i+1)*step]...)
		out = append(out, f)
	}
	return append(out, rest[len(fetches)*step:]...)
}
