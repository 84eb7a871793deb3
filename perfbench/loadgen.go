package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// sample is one completed request of a timed loop.
type sample struct {
	op     int // index into the round
	seq    int // index of the request in the loop
	status int
	start  time.Duration // since the loop started
	lat    time.Duration
	digest uint64 // of the answer part of the body
	size   int
}

// loopResult is what one closed loop observed.
type loopResult struct {
	samples []sample
	t0      time.Time
	// marks holds the wall time, the servers' CPU time and the machine's
	// steal time at the start of every round and at the end of the loop.
	marks []mark
	// bodies holds one copy of every distinct answer per op, for the
	// checks after the loop; stats holds every body's stats part when the
	// loop was asked to keep them.
	bodies map[answerKey][]byte
	stats  [][]byte
}

type mark struct {
	at, cpu, steal time.Duration
}

type answerKey struct {
	op     int
	digest uint64
}

type client struct {
	base string
	http *http.Client
}

// newClient returns a client that keeps one connection to base.
func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends q and returns the status and full body.
func (c *client) do(ctx context.Context, q query, rid string) (int, []byte, error) {
	method, path, body := q.request()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// splitAnswer separates a query response into its answer and its stats.
// Responses encode their top-level keys in sorted order, and "stats" sorts
// after "neighbors", "objects" and "pairs", so the answer is the prefix.
// Object fetches have no stats.
func splitAnswer(body []byte) (answer, stats []byte) {
	if i := bytes.Index(body, []byte(`"stats":`)); i >= 0 {
		return body[:i], body[i+len(`"stats":`):]
	}
	return body, nil
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// closedLoop sends the requests of the round one after another, each as
// soon as the previous reply has been read. It keeps starting rounds until
// d has passed and always finishes the round in progress, so every run
// attempts whole rounds. With keepStats, every response's stats part is
// kept too, indexed like samples, and every request carries the request
// ID tag-<seq>.
func closedLoop(ctx context.Context, c *client, pids []int, round []query, d time.Duration, keepStats bool, tag string) (*loopResult, error) {
	res := &loopResult{bodies: make(map[answerKey][]byte)}
	start := time.Now()
	res.t0 = start
	addMark := func() error {
		cpu, err := totalCPU(pids)
		res.marks = append(res.marks, mark{time.Since(start), cpu, stealTime()})
		return err
	}
	for i := 0; i%len(round) != 0 || time.Since(start) < d; i++ {
		op := i % len(round)
		if op == 0 {
			if err := addMark(); err != nil {
				return nil, err
			}
		}
		rid := ""
		if keepStats {
			rid = tag + "-" + strconv.Itoa(i)
		}
		t0 := time.Now()
		status, body, err := c.do(ctx, round[op], rid)
		lat := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", round[op], err)
		}
		ans, st := splitAnswer(body)
		s := sample{op: op, seq: i, status: status, start: t0.Sub(start), lat: lat, digest: digest(ans), size: len(body)}
		if k := (answerKey{op, s.digest}); res.bodies[k] == nil {
			res.bodies[k] = body
		}
		res.samples = append(res.samples, s)
		if keepStats {
			res.stats = append(res.stats, st)
		}
	}
	if err := addMark(); err != nil {
		return nil, err
	}
	return res, nil
}

// window is a run of consecutive rounds of a loop.
type window struct {
	firstRound, endRound int // rounds [firstRound, endRound)
	ops                  int
	wall, cpu, steal     time.Duration
}

// windows splits the loop at round boundaries into consecutive windows of
// at least minWall each.
func (r *loopResult) windows(roundLen int, minWall time.Duration) []window {
	var out []window
	first := 0
	for i := 1; i < len(r.marks); i++ {
		wall := r.marks[i].at - r.marks[first].at
		last := i == len(r.marks)-1
		if wall < minWall && !last {
			continue
		}
		if wall < minWall/2 && len(out) > 0 {
			// A short tail joins the window before it.
			prev := &out[len(out)-1]
			first = prev.firstRound
			wall = r.marks[i].at - r.marks[first].at
			out = out[:len(out)-1]
		}
		w := window{firstRound: first, endRound: i, ops: (i - first) * roundLen, wall: wall,
			cpu: r.marks[i].cpu - r.marks[first].cpu, steal: r.marks[i].steal - r.marks[first].steal}
		if last {
			// The last mark is the loop's end, not a round start.
			w.endRound = len(r.samples)/roundLen + 1
			w.ops = len(r.samples) - first*roundLen
		}
		out = append(out, w)
		first = i
	}
	return out
}

// quietWindows returns the windows whose steal rate is at most the
// median's: the half of the loop the hypervisor disturbed least.
func quietWindows(ws []window) []window {
	rate := func(w window) float64 { return float64(w.steal) / float64(w.wall) }
	rates := make([]float64, len(ws))
	for i, w := range ws {
		rates[i] = rate(w)
	}
	m := median(rates)
	var out []window
	for _, w := range ws {
		if rate(w) <= m {
			out = append(out, w)
		}
	}
	return out
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func latenciesMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.lat) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
