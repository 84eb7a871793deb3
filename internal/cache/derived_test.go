package cache

import (
	"sync"
	"testing"

	"repro/internal/mesh"
)

func admit(t *testing.T, c *Cache, k Key, m *mesh.Mesh) *mesh.Mesh {
	t.Helper()
	got, err := c.GetOrDecode(k, func() (*mesh.Mesh, error) { return m, nil })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestTreeBuiltOncePerEntry(t *testing.T) {
	c := New(1 << 20)
	m := admit(t, c, Key{1, 0}, sphere(1))

	var wg sync.WaitGroup
	trees := make([]any, 8)
	for i := range trees {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trees[i] = c.Tree(Key{1, 0}, m)
		}(i)
	}
	wg.Wait()
	for _, tr := range trees[1:] {
		if tr != trees[0] {
			t.Fatal("concurrent Tree calls returned different trees")
		}
	}
	if got := c.Stats().TreeBuilds; got != 1 {
		t.Errorf("TreeBuilds = %d, want 1", got)
	}
	if c.Tree(Key{1, 0}, m) != trees[0] {
		t.Error("warm Tree call rebuilt the tree")
	}
	if got := c.Stats().TreeBuilds; got != 1 {
		t.Errorf("TreeBuilds after warm call = %d, want 1", got)
	}
}

func TestDerivedBuildsAreCharged(t *testing.T) {
	c := New(1 << 20)
	m := admit(t, c, Key{1, 0}, sphere(1))
	base := c.Stats().BytesUsed

	tree := c.Tree(Key{1, 0}, m)
	afterTree := c.Stats().BytesUsed
	if afterTree != base+tree.Bytes() {
		t.Errorf("BytesUsed after tree = %d, want %d + %d", afterTree, base, tree.Bytes())
	}

	soa := m.SoA()
	tris := int64(len(m.TrianglesCached())) * 72
	if got, want := c.Stats().BytesUsed, afterTree+soa.Bytes()+tris; got != want {
		t.Errorf("BytesUsed after SoA = %d, want %d", got, want)
	}

	c.InvalidateObject(1)
	if got := c.Stats().BytesUsed; got != 0 {
		t.Errorf("BytesUsed after InvalidateObject = %d, want 0", got)
	}
	if c.Tree(Key{1, 0}, m) == tree {
		t.Error("tree survived InvalidateObject")
	}
}

func TestSmallBudgetHoldsWithDerived(t *testing.T) {
	one := meshBytes(sphere(1))
	c := New(3 * one)
	for i := int64(0); i < 6; i++ {
		k := Key{i, 0}
		m := admit(t, c, k, sphere(1))
		c.Tree(k, m)
		m.SoA()
		if s := c.Stats(); s.BytesUsed > 3*one {
			t.Fatalf("after object %d: BytesUsed = %d over budget %d", i, s.BytesUsed, 3*one)
		}
	}
	if c.Stats().Evictions == 0 {
		t.Error("derived structures pushed nothing out of a small budget")
	}
}

func TestTreeDroppedWithEntry(t *testing.T) {
	c := New(1 << 20)
	m := admit(t, c, Key{1, 0}, sphere(1))
	first := c.Tree(Key{1, 0}, m)
	c.Clear()
	if got := c.Stats().BytesUsed; got != 0 {
		t.Errorf("BytesUsed after Clear = %d, want 0", got)
	}
	// The mesh the caller still holds is no longer an entry's: its tree is
	// built for the call only, and building it charges nothing.
	if c.Tree(Key{1, 0}, m) == first {
		t.Error("tree survived Clear")
	}
	m.SoA()
	if got := c.Stats().BytesUsed; got != 0 {
		t.Errorf("evicted mesh's layouts were charged: BytesUsed = %d", got)
	}
	if got := c.Stats().TreeBuilds; got != 2 {
		t.Errorf("TreeBuilds = %d, want 2", got)
	}
}

func TestTreeWithCachingDisabled(t *testing.T) {
	c := New(0)
	m := admit(t, c, Key{1, 0}, sphere(1))
	if c.Tree(Key{1, 0}, m) == nil || c.Tree(Key{1, 0}, m) == nil {
		t.Fatal("nil tree")
	}
	if s := c.Stats(); s.TreeBuilds != 2 || s.BytesUsed != 0 {
		t.Errorf("stats = %+v, want 2 uncached builds and nothing charged", s)
	}
}
