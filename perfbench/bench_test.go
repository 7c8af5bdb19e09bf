package main

import (
	"context"
	"io"
	"math/rand/v2"
	"net"
	"sync/atomic"
	"testing"

	"cubetree/internal/core"
	"cubetree/internal/lattice"
	"cubetree/internal/tpcd"
	"cubetree/internal/workload"
)

// TestReplayMatchesProfile proves the rtree replay faithful: for every
// query shape, the box rebuilt from Forest.Plan and scanned on a core.Open
// of the same generation visits exactly the points and leaf pages the
// engine's own profile reports, and the engine's answer matches the
// brute-force oracle.
func TestReplayMatchesProfile(t *testing.T) {
	ds := tpcd.New(tpcd.Params{SF: 0.002, Seed: 7})
	domains := map[lattice.Attr]int64{attrP: ds.Parts, attrS: ds.Suppliers, attrC: ds.Customers}
	facts := genFacts(ds.FactRows())
	n, err := materialize(t.TempDir(), domains, facts, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer n.wh.Close()
	f, err := core.Open(genDir(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rng := rand.New(rand.NewPCG(1, 2))
	var qs []workload.Query
	for _, shapes := range [][]shape{reportShapes, rollupShapes} {
		qs = append(qs, makeQueries(rng, shapes, domains, 4*len(shapes))...)
	}
	qs = append(qs, workload.Query{})
	o := newOracle(qs)
	o.add(facts)
	for i, q := range qs {
		var prof workload.QueryProfile
		rows, err := n.wh.QueryProfiledCtx(context.Background(), q, &prof)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if rowsDigest(rows) != rowsDigest(o.rows(i)) {
			t.Errorf("%s: engine answer differs from the oracle", q)
		}
		plan, err := f.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		points, st, _, err := replay(f, plan.Placement, q)
		if err != nil {
			t.Fatal(err)
		}
		if points != prof.PointsScanned || st.LeafPagesRead != prof.LeafPagesRead || st.LeafPagesSkipped != prof.LeafPagesSkipped {
			t.Errorf("%s: replay visited %d points, read %d and skipped %d leaf pages; profile says %d, %d and %d",
				q, points, st.LeafPagesRead, st.LeafPagesSkipped, prof.PointsScanned, prof.LeafPagesRead, prof.LeafPagesSkipped)
		}
	}
}

func TestCountingListener(t *testing.T) {
	var bytes atomic.Int64
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := countingListener{Listener: inner, bytes: &bytes}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		_, err = io.Copy(c, c) // echo until the client half-closes
		served <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := make([]byte, 10000)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	c.(*net.TCPConn).CloseWrite()
	if _, err := io.ReadFull(c, make([]byte, len(msg))); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if got, want := bytes.Load(), int64(2*len(msg)); got != want {
		t.Errorf("counted %d bytes, want %d read plus written", got, want)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{0.50, 500, 500}, {0.99, 990, 10}} {
		v, beyond, err := percentile(xs, c.p)
		if err != nil || v != c.want || beyond != c.beyond {
			t.Errorf("p%g of 1..1000 = %v with %d beyond (%v), want %v with %d", c.p*100, v, beyond, err, c.want, c.beyond)
		}
	}
	// One sample fewer leaves 9 beyond p99: too few to report.
	if _, beyond, err := percentile(xs[:999], 0.99); err == nil || beyond != 9 {
		t.Errorf("p99 of 999 samples: %d beyond, err %v; want 9 and an error", beyond, err)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestClean(t *testing.T) {
	// Ten windows of 500 queries; window k's latencies are all k+1 ms.
	var l loop
	for k := 0; k < 10; k++ {
		lo := len(l.lat)
		for range 500 {
			l.lat = append(l.lat, float64(k+1))
		}
		l.win = append(l.win, window{lo: lo, hi: len(l.lat)})
	}
	// A host that steals nothing: every window counts.
	if got := len(clean(l, 1000)); got != 5000 {
		t.Errorf("no steal: pooled %d queries, want all 5000", got)
	}
	// Windows 3 and 7 stole least, then windows 1 and 8 tied: the two
	// cleanest hold 1,000 queries, enough, so the tie is left out.
	for k, s := range []int64{5, 2, 6, 0, 9, 9, 9, 0, 2, 4} {
		l.win[k].steal = s
	}
	pool := clean(l, 1000)
	if len(pool) != 1000 || pool[0] != 4 || pool[999] != 8 {
		t.Errorf("pooled %d queries from %v to %v, want windows 3 and 7 (4 and 8 ms)", len(pool), pool[0], pool[len(pool)-1])
	}
	// Window 7 stealing too means the windows tied at 2 steal are needed,
	// and both are taken.
	l.win[7].steal = 3
	if got := len(clean(l, 1000)); got != 1500 {
		t.Errorf("pooled %d queries, want 1500 (windows 3, 1 and 8)", got)
	}
	s, err := summarize(l)
	if err != nil || s.share != 0.3 || s.p50 != 4 || s.p99 != 9 {
		t.Errorf("summary %+v (%v), want p50 4, p99 9 over 30%% of the queries", s, err)
	}
}
