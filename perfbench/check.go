package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/geom"
)

// relTol is the relative tolerance of distance comparisons.
const relTol = 1e-9

func close9(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))+1e-12
}

// knownFaults lists the requests the minimum-LOD fault (README, "Operations
// that fail today") answers wrongly on the fixed data. Their wrong answers
// count as failed and leave a run correct; a wrong answer to any other
// request, or a non-2xx reply, makes the run incorrect. A request of the
// table that is answered right counts as passed.
var knownFaults = map[string]bool{
	"WN nuclei1/nuclei2 dist=6":                                    true,
	"WN nuclei1/nuclei2 dist=8":                                    true,
	"NN nuclei1/nuclei2 k=1":                                       true,
	"NN nucleiT/vessels k=1":                                       true,
	"NN nucleiT/vessels k=3":                                       true,
	"range nucleiT [72.465 33.646 13.597]-[111.080 72.261 52.212]": true,
}

// expected is the oracle's answer to one query.
type expected struct {
	Pairs []core.Pair `json:"pairs,omitempty"` // intersect, within
	// Band holds within pairs whose distance lies within relTol of dist:
	// either answer is accepted for them.
	Band []core.Pair `json:"band,omitempty"`
	// Near lists, per target, its k+1 nearest sources (nn).
	Near map[int64][]near `json:"near,omitempty"`
	IDs  []int64          `json:"ids,omitempty"` // point, range
}

func oracleKey(datasets map[string]*core.Dataset, round []query) string {
	h := sha256.New()
	names := make([]string, 0, len(datasets))
	for n := range datasets {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		h.Write([]byte(n))
		for _, o := range datasets[n].Tileset.Objects {
			h.Write(o.Comp.Bytes())
		}
	}
	// The answers do not depend on the order of the round, so neither does
	// the key: every join seed shares one cache entry.
	qs := make([]string, len(round))
	for i, q := range round {
		qs[i] = q.String()
	}
	slices.Sort(qs)
	for _, q := range qs {
		h.Write([]byte(q))
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// loadOracle returns the cached answers for the round, computing and
// caching them when absent or when recompute is set.
func loadOracle(cacheDir string, datasets map[string]*core.Dataset, round []query, recompute bool) (map[string]*expected, bool, error) {
	path := filepath.Join(cacheDir, oracleKey(datasets, round)+".json")
	if !recompute {
		if b, err := os.ReadFile(path); err == nil {
			var out map[string]*expected
			if err := json.Unmarshal(b, &out); err == nil {
				return out, true, nil
			}
		}
	}
	out, err := computeOracle(datasets, round)
	if err != nil {
		return nil, false, err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return nil, false, err
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, false, err
	}
	return out, false, os.WriteFile(path, b, 0o644)
}

func computeOracle(datasets map[string]*core.Dataset, round []query) (map[string]*expected, error) {
	solids := make(map[string][]*solid)
	get := func(name string) ([]*solid, error) {
		if s, ok := solids[name]; ok {
			return s, nil
		}
		d, ok := datasets[name]
		if !ok {
			return nil, fmt.Errorf("oracle: dataset %q not ingested", name)
		}
		s, err := decodeTop(d)
		solids[name] = s
		return s, err
	}
	// One distance table per pairing serves every within and nn query on it.
	type pairing struct{ t, s string }
	radius := map[pairing]float64{}
	kmax := map[pairing]int{}
	for _, q := range round {
		p := pairing{q.Target, q.Source}
		switch q.Kind {
		case "within":
			radius[p] = math.Max(radius[p], q.Dist)
			kmax[p] = max(kmax[p], 1)
		case "nn":
			kmax[p] = max(kmax[p], q.K+1)
		}
	}
	tables := map[pairing][][]near{}
	out := make(map[string]*expected)
	for _, q := range round {
		if _, done := out[q.String()]; done {
			continue
		}
		e := &expected{}
		switch q.Kind {
		case "intersect", "within", "nn":
			ts, err := get(q.Target)
			if err != nil {
				return nil, err
			}
			ss, err := get(q.Source)
			if err != nil {
				return nil, err
			}
			if q.Kind == "intersect" {
				for t, srcs := range intersectTable(ts, ss) {
					for _, s := range srcs {
						e.Pairs = append(e.Pairs, core.Pair{Target: int64(t), Source: s})
					}
				}
				break
			}
			p := pairing{q.Target, q.Source}
			tab, ok := tables[p]
			if !ok {
				tab = distTable(ts, ss, radius[p], kmax[p])
				tables[p] = tab
			}
			for t, ns := range tab {
				if q.Kind == "nn" {
					if e.Near == nil {
						e.Near = make(map[int64][]near)
					}
					e.Near[int64(t)] = ns[:min(len(ns), q.K+1)]
					continue
				}
				for _, n := range ns {
					pr := core.Pair{Target: int64(t), Source: n.Source}
					if close9(n.Dist, q.Dist) {
						e.Band = append(e.Band, pr)
					} else if n.Dist <= q.Dist {
						e.Pairs = append(e.Pairs, pr)
					}
				}
			}
		case "point", "range":
			ss, err := get(q.Dataset)
			if err != nil {
				return nil, err
			}
			box := geom.Box3{Min: geom.V(q.Min[0], q.Min[1], q.Min[2]), Max: geom.V(q.Max[0], q.Max[1], q.Max[2])}
			p := geom.V(q.Point[0], q.Point[1], q.Point[2])
			for _, s := range ss {
				if (q.Kind == "point" && contains(s, p)) || (q.Kind == "range" && inRange(s, box)) {
					e.IDs = append(e.IDs, s.id)
				}
			}
		case "fetch":
			// Checked against the generated meshes, not the oracle.
		}
		out[q.String()] = e
	}
	return out, nil
}

// check compares one response body with the oracle's answer.
func check(q query, body []byte, e *expected, genFaces map[string][]int) error {
	switch q.Kind {
	case "intersect", "within":
		var got struct{ Pairs []core.Pair }
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		return samePairs(got.Pairs, e.Pairs, e.Band)
	case "nn":
		var got struct{ Neighbors []core.Neighbor }
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		return sameNeighbors(got.Neighbors, e.Near, q.K)
	case "point", "range":
		var got struct{ Objects []int64 }
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if !slices.Equal(sortedIDs(got.Objects), sortedIDs(e.IDs)) {
			return fmt.Errorf("objects %v, want %v", got.Objects, e.IDs)
		}
		return nil
	default:
		var got struct {
			LOD   int        `json:"lod"`
			Faces [][3]int32 `json:"faces"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.LOD != q.LOD {
			return fmt.Errorf("lod %d, want %d", got.LOD, q.LOD)
		}
		if len(got.Faces) == 0 {
			return errors.New("no faces")
		}
		if want := genFaces[q.Dataset][q.ID]; q.LOD == q.TopLOD && len(got.Faces) != want {
			return fmt.Errorf("top LOD has %d faces, the generated mesh %d", len(got.Faces), want)
		}
		return nil
	}
}

func sortedIDs(ids []int64) []int64 {
	s := append([]int64(nil), ids...)
	slices.Sort(s)
	return s
}

func samePairs(got, want, band []core.Pair) error {
	in := func(set []core.Pair) map[core.Pair]bool {
		m := make(map[core.Pair]bool, len(set))
		for _, p := range set {
			m[p] = true
		}
		return m
	}
	g, w, b := in(got), in(want), in(band)
	var missing, extra int
	for p := range w {
		if !g[p] {
			missing++
		}
	}
	for p := range g {
		if !w[p] && !b[p] {
			extra++
		}
	}
	if missing+extra > 0 {
		return fmt.Errorf("%d pairs missing, %d extra (of %d expected)", missing, extra, len(want))
	}
	return nil
}

func sameNeighbors(got []core.Neighbor, want map[int64][]near, k int) error {
	byTarget := make(map[int64][]core.Neighbor)
	for _, n := range got {
		byTarget[n.Target] = append(byTarget[n.Target], n)
	}
	wrong := 0
	for t, ns := range want {
		g := byTarget[t]
		n := min(k, len(ns))
		if len(g) != n {
			wrong++
			continue
		}
		for r := 0; r < n; r++ {
			if !close9(g[r].Dist, ns[r].Dist) {
				wrong++
				break
			}
			// Source IDs count only where the rank is not tied.
			tied := (r > 0 && close9(ns[r-1].Dist, ns[r].Dist)) || (r+1 < len(ns) && close9(ns[r+1].Dist, ns[r].Dist))
			if !tied && g[r].Source != ns[r].Source {
				wrong++
				break
			}
		}
	}
	for t := range byTarget {
		if _, ok := want[t]; !ok {
			wrong++
		}
	}
	if wrong > 0 {
		return fmt.Errorf("%d of %d targets disagree", wrong, len(want))
	}
	return nil
}
