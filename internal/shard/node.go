package shard

import (
	"bytes"
	"container/list"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// Node is one shard: an engine plus the home-group subsets of every
// dataset it replicates. A node only ever sees the objects of the groups
// placed on it and the per-query loans the coordinator ships; it has no
// knowledge of the other shards. Under replication a node holds several
// groups of the same dataset (its primary group plus the replica groups
// that wrap onto it), kept separate so a request serves exactly one
// group's targets.
type Node struct {
	id  int
	eng *core.Engine

	mu       sync.RWMutex
	datasets map[string]map[int]*core.Dataset // name → group → home subset

	// life orders Close after every Handle in flight: Handle holds it
	// shared, Close exclusively. A coordinator abandons an attempt whose
	// query context ends, so the engine must outlive calls nobody waits
	// for. closed (guarded by life) turns later requests away.
	life   sync.RWMutex
	closed bool

	// loanMu guards loanSets, the assembled loan datasets kept for reuse,
	// most recently used first (see loanDataset).
	loanMu   sync.Mutex
	loanSets *list.List // of *loanSet
}

// maxLoanSets bounds the loan datasets a node keeps for reuse. The
// coordinator derives a group's loans from the query alone, so each
// distinct join request a node serves repeatedly (kind, datasets, dist or
// k, group) occupies one set.
const maxLoanSets = 64

// loanSet is one assembled loan dataset and the loans it was built from.
type loanSet struct {
	source string
	loans  []*storage.Object
	ds     *core.Dataset
}

// NewNode creates a shard node with its own engine (decode cache, GPU
// device, and object quarantine are all per-shard).
func NewNode(id int, opts core.EngineOptions) *Node {
	return &Node{id: id, eng: core.NewEngine(opts), datasets: make(map[string]map[int]*core.Dataset), loanSets: list.New()}
}

// ID returns the shard index.
func (n *Node) ID() int { return n.id }

// Engine exposes the node's engine (for statistics and tests).
func (n *Node) Engine() *core.Engine { return n.eng }

// Close waits for in-flight requests, then releases the node's engine
// resources. Requests arriving later fail with ErrTransport.
func (n *Node) Close() {
	n.life.Lock()
	defer n.life.Unlock()
	if !n.closed {
		n.closed = true
		n.eng.Close()
	}
}

// AddDataset installs one home group's subset of a dataset. A nil or empty
// tileset means no object of that group lives here; queries naming it
// return empty results. Re-adding a (name, group) replaces the subset.
func (n *Node) AddDataset(name string, group int, ts *storage.Tileset) error {
	if ts == nil || !hasObjects(ts) {
		return nil
	}
	d, err := n.eng.AssembleDataset(name, ts)
	if err != nil {
		return fmt.Errorf("shard %d: %w", n.id, err)
	}
	n.mu.Lock()
	if n.datasets[name] == nil {
		n.datasets[name] = make(map[int]*core.Dataset)
	}
	n.datasets[name][group] = d
	n.mu.Unlock()
	return nil
}

func hasObjects(ts *storage.Tileset) bool {
	for _, o := range ts.Objects {
		if o != nil {
			return true
		}
	}
	return false
}

func (n *Node) dataset(name string, group int) *core.Dataset {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.datasets[name][group]
}

// Handle executes one request against the requested group's home objects.
// Join kinds run home-targets × home-sources plus home-targets × loans and
// merge; the loan set never contains the group's home objects, so the two
// sub-joins partition the candidate pairs. The context carries the
// per-attempt deadline the coordinator derived from the request context;
// the engine honors it.
func (n *Node) Handle(ctx context.Context, req *Request) (*Response, error) {
	n.life.RLock()
	defer n.life.RUnlock()
	if n.closed {
		return nil, fmt.Errorf("%w: shard %d is closed", ErrTransport, n.id)
	}
	start := time.Now()
	target := n.dataset(req.Target, req.Group)
	if target == nil {
		// No home objects of the target dataset: an empty, well-formed
		// answer (the coordinator marks such shards "skipped" when it can
		// tell in advance).
		return &Response{Stats: &core.Stats{Elapsed: time.Since(start)}}, nil
	}
	switch req.Kind {
	case KindRange:
		ids, st, err := n.eng.RangeQuery(ctx, target, req.Box, req.Opts)
		if err != nil {
			return nil, err
		}
		return &Response{IDs: ids, Stats: st}, nil
	case KindContains:
		ids, st, err := n.eng.ContainingObjects(ctx, target, req.Point, req.Opts)
		if err != nil {
			return nil, err
		}
		return &Response{IDs: ids, Stats: st}, nil
	case KindIntersect, KindWithin, KindKNN:
		return n.handleJoin(ctx, target, req, start)
	default:
		return nil, fmt.Errorf("shard %d: unknown request kind %q", n.id, req.Kind)
	}
}

// handleJoin runs the two sub-joins of a join request and merges them.
func (n *Node) handleJoin(ctx context.Context, target *core.Dataset, req *Request, start time.Time) (*Response, error) {
	sources := make([]*core.Dataset, 0, 2)
	if home := n.dataset(req.Source, req.Group); home != nil {
		sources = append(sources, home)
	}
	if len(req.Loans) > 0 {
		loan, err := n.loanDataset(req.Source, req.Loans)
		if err != nil {
			return nil, err
		}
		sources = append(sources, loan)
	}

	resp := &Response{Stats: &core.Stats{}}
	// Per-source neighbor lists are merged per target afterwards (KNN).
	var neighborParts [][]core.Neighbor
	for _, src := range sources {
		switch req.Kind {
		case KindIntersect:
			pairs, st, err := n.eng.IntersectJoin(ctx, target, src, req.Opts)
			if err != nil {
				return nil, err
			}
			resp.Pairs = append(resp.Pairs, pairs...)
			resp.Stats.Merge(st)
		case KindWithin:
			pairs, st, err := n.eng.WithinJoin(ctx, target, src, req.Dist, req.Opts)
			if err != nil {
				return nil, err
			}
			resp.Pairs = append(resp.Pairs, pairs...)
			resp.Stats.Merge(st)
		case KindKNN:
			nbrs, st, err := n.eng.KNNJoin(ctx, target, src, req.Opts)
			if err != nil {
				return nil, err
			}
			neighborParts = append(neighborParts, nbrs)
			resp.Stats.Merge(st)
		}
	}
	switch req.Kind {
	case KindIntersect, KindWithin:
		sortPairs(resp.Pairs)
	case KindKNN:
		k := req.Opts.K
		if k <= 0 {
			k = 1
		}
		resp.Neighbors = mergeTopK(neighborParts, k)
	}
	resp.Stats.Elapsed = time.Since(start)
	return resp, nil
}

// loanDataset returns the dataset of a request's loans. A request whose
// loans match an earlier one exactly — same source name and, loan by loan
// in order, the same ID, cuboid and blob bytes — reuses that request's
// dataset, and with it the dataset's decode-cache keys and AABB trees, so
// a repeated join decodes nothing. Any difference assembles a new dataset
// with fresh cache keys, so a changed blob is never served from stale
// decodes. The maxLoanSets most recently used datasets are kept; an
// evicted one has its decode-cache entries dropped.
func (n *Node) loanDataset(source string, loans []*storage.Object) (*core.Dataset, error) {
	n.loanMu.Lock()
	for el := n.loanSets.Front(); el != nil; el = el.Next() {
		if ls := el.Value.(*loanSet); ls.matches(source, loans) {
			n.loanSets.MoveToFront(el)
			n.loanMu.Unlock()
			return ls.ds, nil
		}
	}
	ds, err := n.assembleLoans(source, loans)
	if err != nil {
		n.loanMu.Unlock()
		return nil, err
	}
	n.loanSets.PushFront(&loanSet{source: source, loans: loans, ds: ds})
	var evicted *core.Dataset
	if n.loanSets.Len() > maxLoanSets {
		evicted = n.loanSets.Remove(n.loanSets.Back()).(*loanSet).ds
	}
	n.loanMu.Unlock()
	if evicted != nil {
		n.eng.EvictDataset(evicted)
	}
	return ds, nil
}

// matches reports whether loans are exactly the loans of the set.
func (ls *loanSet) matches(source string, loans []*storage.Object) bool {
	if ls.source != source || len(ls.loans) != len(loans) {
		return false
	}
	for i, o := range loans {
		p := ls.loans[i]
		if o.ID != p.ID || o.Cuboid != p.Cuboid {
			return false
		}
		if o.Comp != p.Comp && !bytes.Equal(o.Comp.Bytes(), p.Comp.Bytes()) {
			return false
		}
	}
	return true
}

// assembleLoans builds a dataset from the loaned source objects. Object
// IDs are global (the coordinator's), so pairs produced against loans line
// up with pairs produced anywhere else.
func (n *Node) assembleLoans(source string, loans []*storage.Object) (*core.Dataset, error) {
	var maxID int64 = -1
	for _, o := range loans {
		if o.ID > maxID {
			maxID = o.ID
		}
	}
	ts := &storage.Tileset{
		Objects: make([]*storage.Object, maxID+1),
		Tiles:   make(map[int][]*storage.Object),
	}
	for _, o := range loans {
		ts.Objects[o.ID] = o
		ts.Tiles[o.Cuboid] = append(ts.Tiles[o.Cuboid], o)
	}
	return n.eng.AssembleDataset(source+"@loan", ts)
}

// mergeTopK merges per-source KNN result lists into the top k per target.
// Each part is a correct top-k against its own source subset and the
// subsets are disjoint, so the union's k smallest per target are the true
// top k against the union.
func mergeTopK(parts [][]core.Neighbor, k int) []core.Neighbor {
	if len(parts) == 1 {
		return parts[0]
	}
	var all []core.Neighbor
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Target != all[j].Target {
			return all[i].Target < all[j].Target
		}
		//lint:ignore floateq exact tie-break between settled distances; equality only routes to the deterministic ID order
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Source < all[j].Source
	})
	out := all[:0]
	var cur int64 = -1
	taken := 0
	for _, nb := range all {
		if nb.Target != cur {
			cur, taken = nb.Target, 0
		}
		if taken < k {
			out = append(out, nb)
			taken++
		}
	}
	return out
}

// sortPairs orders pairs by target then source — the same deterministic
// order the single-engine joins guarantee.
func sortPairs(pairs []core.Pair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Target != pairs[j].Target {
			return pairs[i].Target < pairs[j].Target
		}
		return pairs[i].Source < pairs[j].Source
	})
}
