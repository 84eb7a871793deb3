package bench

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
)

// answer runs one Table 1 join on engine e and returns its full answer.
func (s *Suite) answer(e *core.Engine, test TestID, q core.QueryOptions) (any, error) {
	target, source := s.datasets(test)
	ctx := context.Background()
	switch test.Kind() {
	case core.IntersectKind:
		pairs, _, err := e.IntersectJoin(ctx, target, source, q)
		return pairs, err
	case core.WithinKind:
		pairs, _, err := e.WithinJoin(ctx, target, source, s.Cfg.WithinDist, q)
		return pairs, err
	default:
		ns, _, err := e.NNJoin(ctx, target, source, q)
		return ns, err
	}
}

// TestTreeEvictionKeepsAnswers runs the Table 1 joins under a 1 MB decode
// cache, where meshes and their AABB trees are evicted and rebuilt all the
// time, and under the suite's default budget: the answers must be
// identical, run after run.
func TestTreeEvictionKeepsAnswers(t *testing.T) {
	s := testSuite(t)
	small := core.NewEngine(core.EngineOptions{CacheBytes: 1 << 20, Workers: s.Cfg.Workers})
	defer small.Close()

	for _, p := range []core.Paradigm{core.FR, core.FPR} {
		q := core.QueryOptions{Paradigm: p, Accel: core.AABB, Workers: s.Cfg.Workers}
		for _, test := range AllTests {
			want, err := s.answer(s.Engine, test, q)
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ {
				got, err := s.answer(small, test, q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v/%v run %d: 1 MB cache answered %v, default budget %v", p, test, run, got, want)
				}
			}
		}
	}
	st := small.Cache().Stats()
	t.Logf("1 MB cache: %d misses, %d evictions, %d tree builds", st.Misses, st.Evictions, st.TreeBuilds)
	if st.Evictions == 0 || st.TreeBuilds == 0 {
		t.Errorf("1 MB cache evicted %d entries and built %d trees; the test would be vacuous", st.Evictions, st.TreeBuilds)
	}
}
