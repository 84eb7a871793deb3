package shard_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ppvp"
	"repro/internal/shard"
	"repro/internal/storage"
)

// loanNode returns a node holding target as home group 0 and no objects of
// the source dataset, so every source object reaches it as a loan.
func loanNode(t *testing.T, target *core.Dataset) *shard.Node {
	t.Helper()
	n := shard.NewNode(0, testEngineOptions())
	t.Cleanup(n.Close)
	if err := n.AddDataset(target.Name, 0, target.Tileset); err != nil {
		t.Fatal(err)
	}
	return n
}

// wireLoans copies d's objects the way the HTTP worker receives them: new
// objects parsed from the blobs. blobOf picks which object's blob each ID
// carries.
func wireLoans(t *testing.T, d *core.Dataset, blobOf func(id int) int) []*storage.Object {
	t.Helper()
	out := make([]*storage.Object, d.Len())
	for i := range out {
		o := d.Tileset.Object(int64(i))
		comp, err := ppvp.FromBytes(d.Tileset.Object(int64(blobOf(i))).Comp.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = &storage.Object{ID: o.ID, Cuboid: o.Cuboid, Comp: comp}
	}
	return out
}

func same(i int) int { return i }

func loanRequests(target, source *core.Dataset, loans []*storage.Object) []*shard.Request {
	q := core.QueryOptions{Paradigm: core.FPR, Accel: core.AABB}
	knn := q
	knn.K = 2
	return []*shard.Request{
		{Kind: shard.KindWithin, Target: target.Name, Source: source.Name, Dist: 12, Opts: q, Loans: loans},
		{Kind: shard.KindKNN, Target: target.Name, Source: source.Name, Opts: knn, Loans: loans},
	}
}

func handle(t *testing.T, n *shard.Node, req *shard.Request) *shard.Response {
	t.Helper()
	resp, err := n.Handle(context.Background(), req)
	if err != nil {
		t.Fatalf("%s: %v", req.Kind, err)
	}
	resp.Stats = nil
	return resp
}

// TestRepeatedLoansDecodeNothing: a join whose loans arrive again with the
// same content, as fresh copies off the wire, reuses the loan dataset and
// its decode-cache entries.
func TestRepeatedLoansDecodeNothing(t *testing.T) {
	e := core.NewEngine(testEngineOptions())
	t.Cleanup(e.Close)
	a, b := buildDisjointPair(t, e)
	n := loanNode(t, a)

	for _, req := range loanRequests(a, b, wireLoans(t, b, same)) {
		first := handle(t, n, req)
		if len(first.Pairs)+len(first.Neighbors) == 0 {
			t.Fatalf("%s: empty answer; the test would be vacuous", req.Kind)
		}
		before := n.Engine().Cache().Stats()
		again := *req
		again.Loans = wireLoans(t, b, same)
		second := handle(t, n, &again)
		if d := n.Engine().Cache().Stats().Sub(before); d.Misses != 0 || d.TreeBuilds != 0 {
			t.Errorf("%s: repeated loans decoded again: %d misses, %d tree builds", req.Kind, d.Misses, d.TreeBuilds)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: repeated answer %+v differs from first %+v", req.Kind, second, first)
		}
	}
}

// TestChangedLoanBlobIsNotStale: the same loan IDs carrying other blobs are
// a different loan set; the node must answer them as a node that never saw
// the first set does.
func TestChangedLoanBlobIsNotStale(t *testing.T) {
	e := core.NewEngine(testEngineOptions())
	t.Cleanup(e.Close)
	a, b := buildDisjointPair(t, e)
	shifted := func(i int) int { return (i + 1) % b.Len() }

	n := loanNode(t, a)
	orig := loanRequests(a, b, wireLoans(t, b, same))
	changed := loanRequests(a, b, wireLoans(t, b, shifted))
	for i := range orig {
		before := handle(t, n, orig[i])
		got := handle(t, n, changed[i])
		want := handle(t, loanNode(t, a), changed[i])
		if reflect.DeepEqual(before, want) {
			t.Fatalf("%s: changed blobs give the same answer; the test would be vacuous", orig[i].Kind)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: answer after a blob change %+v, want %+v", orig[i].Kind, got, want)
		}
	}
}

// TestSharedLoanDatasetConcurrent runs many identical queries at once over
// one reused loan dataset (run under -race).
func TestSharedLoanDatasetConcurrent(t *testing.T) {
	e := core.NewEngine(testEngineOptions())
	t.Cleanup(e.Close)
	a, b := buildDisjointPair(t, e)
	n := loanNode(t, a)
	reqs := loanRequests(a, b, wireLoans(t, b, same))
	want := make([]*shard.Response, len(reqs))
	for i, req := range reqs {
		want[i] = handle(t, loanNode(t, a), req)
	}

	const workers = 8
	got := make([][]*shard.Response, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, req := range loanRequests(a, b, reqs[0].Loans) {
				resp, err := n.Handle(context.Background(), req)
				if err != nil {
					errs[w] = err
					return
				}
				resp.Stats = nil
				got[w] = append(got[w], resp)
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i := range want {
			if !reflect.DeepEqual(got[w][i], want[i]) {
				t.Errorf("worker %d %s: %+v, want %+v", w, reqs[i].Kind, got[w][i], want[i])
			}
		}
	}
}
