package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cubetree/internal/core"
	"cubetree/internal/cube"
	"cubetree/internal/dist"
	"cubetree/internal/enc"
	"cubetree/internal/lattice"
	"cubetree/internal/obs"
	"cubetree/internal/rtree"
	"cubetree/internal/server"
	"cubetree/internal/sqlish"
	"cubetree/internal/workload"
)

// span is one timed call into a layer, recorded from the benchmark's own
// decorators and probes. Spans of one query or one refresh share Op.
type span struct {
	Layer   string `json:"layer"`
	Parent  string `json:"parent,omitempty"`
	Op      int64  `json:"op"`
	Refresh bool   `json:"refresh,omitempty"`
	Shard   int    `json:"shard"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	// N is what the call carried: rows, bytes or points, by layer.
	N       int64 `json:"n,omitempty"`
	Pages   int64 `json:"pages,omitempty"`
	Skipped int64 `json:"skipped,omitempty"`
	// Stored estimates the points held by the leaf pages an rtree replay
	// read: the pages times the run's mean points per leaf page.
	Stored int64 `json:"stored,omitempty"`
}

// tracer keeps spans in memory for the traced run; write saves them when
// the run ends. A nil *tracer records nothing, which is the untraced run.
type tracer struct {
	t0        time.Time
	on        atomic.Bool  // record query-path spans
	op        atomic.Int64 // sequence number of the query in flight
	refreshOp atomic.Int64 // sequence number of the refresh in flight
	wireBytes atomic.Int64 // bytes through the workers' sockets
	sheds     atomic.Int64 // 429 and 503 answers
	deltaRows atomic.Int64 // rows the workers' CSV sources yielded

	mu       sync.Mutex
	spans    []span
	partials map[int][]workload.Row // shard answers of the query in flight
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), partials: map[int][]workload.Row{}}
}

func (t *tracer) setOp(op int64) {
	if t != nil {
		t.op.Store(op)
	}
}

func (t *tracer) setRefreshOp(op int64) {
	if t != nil {
		t.refreshOp.Store(op)
	}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// querySpan records a call made on behalf of the query in flight.
func (t *tracer) querySpan(layer, parent string, shard int, start time.Time, dur time.Duration, n int64) {
	if t == nil || !t.on.Load() {
		return
	}
	t.add(span{Layer: layer, Parent: parent, Op: t.op.Load(), Shard: shard,
		StartNS: int64(start.Sub(t.t0)), DurNS: int64(dur), N: n})
}

// refreshSpan records a call made on behalf of the refresh in flight.
func (t *tracer) refreshSpan(layer string, shard int, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.add(span{Layer: layer, Parent: "refresh", Op: t.refreshOp.Load(), Refresh: true, Shard: shard,
		StartNS: int64(start.Sub(t.t0)), DurNS: int64(dur)})
}

func (t *tracer) shed(status int) {
	if t != nil && (status == 429 || status == 503) {
		t.sheds.Add(1)
	}
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStore times server.Store.QueryCtx, the warehouse call under the
// HTTP front door.
type tracedStore struct {
	server.Store
	tr *tracer
}

func (s tracedStore) QueryCtx(ctx context.Context, q workload.Query) ([]workload.Row, error) {
	start := time.Now()
	rows, err := s.Store.QueryCtx(ctx, q)
	s.tr.querySpan("warehouse", "http", 0, start, time.Since(start), int64(len(rows)))
	return rows, err
}

// tracedBackend times a worker's warehouse calls: each shard's query leg
// (keeping its answer for the fold probe) and the refresh prepare.
type tracedBackend struct {
	dist.Backend
	tr    *tracer
	shard int
}

func (b tracedBackend) QueryCtx(ctx context.Context, q workload.Query) ([]workload.Row, error) {
	start := time.Now()
	rows, err := b.Backend.QueryCtx(ctx, q)
	if b.tr.on.Load() {
		b.tr.querySpan("warehouse", "coordinator", b.shard, start, time.Since(start), int64(len(rows)))
		b.tr.mu.Lock()
		b.tr.partials[b.shard] = rows
		b.tr.mu.Unlock()
	}
	return rows, err
}

func (b tracedBackend) BeginUpdate(rows cube.RowIter) (dist.Pending, error) {
	start := time.Now()
	p, err := b.Backend.BeginUpdate(rows)
	b.tr.refreshSpan("prepare", b.shard, start, time.Since(start))
	if err != nil {
		return nil, err
	}
	return tracedPending{Pending: p, tr: b.tr, shard: b.shard}, nil
}

// tracedPending times the commit of a prepared shard refresh.
type tracedPending struct {
	dist.Pending
	tr    *tracer
	shard int
}

func (p tracedPending) Commit() error {
	start := time.Now()
	err := p.Pending.Commit()
	p.tr.refreshSpan("commit", p.shard, start, time.Since(start))
	return err
}

// csvSource wraps a worker's CSV parser to count the delta rows it yields.
func (t *tracer) csvSource(src dist.CSVSource) dist.CSVSource {
	return func(csv []byte, measure string) (cube.RowIter, error) {
		it, err := src(csv, measure)
		if err != nil {
			return nil, err
		}
		return &countedRows{RowIter: it, n: &t.deltaRows}, nil
	}
}

type countedRows struct {
	cube.RowIter
	n *atomic.Int64
}

func (c *countedRows) Next() bool {
	ok := c.RowIter.Next()
	if ok {
		c.n.Add(1)
	}
	return ok
}

// partitionRows times the coordinator's partition pass: it starts when the
// refresh is handed to the coordinator and ends when the pass has drained
// the increment.
func (t *tracer) partitionRows(rows cube.RowIter) cube.RowIter {
	if t == nil {
		return rows
	}
	return &partitionTimer{RowIter: rows, t: t, start: time.Now()}
}

type partitionTimer struct {
	cube.RowIter
	t     *tracer
	start time.Time
	done  bool
}

func (p *partitionTimer) Next() bool {
	ok := p.RowIter.Next()
	if !ok && !p.done {
		p.done = true
		p.t.refreshSpan("partition", 0, p.start, time.Since(p.start))
	}
	return ok
}

// probe makes the direct layer calls of the traced run after each query:
// sqlish.Parse of its text, core.Forest.Plan, and a replay of the planned
// box through rtree.Tree.SearchWithStats with a visitor that only counts.
// The forests are core.Open'ed on each node's current generation with
// their own buffer pools and I/O counters.
type probe struct {
	forests []*core.Forest
	qs      []workload.Query
	sqls    []string
	fold    bool
}

func openProbe(ns []node, qs []workload.Query, fold bool) (*probe, error) {
	p := &probe{qs: qs, fold: fold}
	for _, q := range qs {
		p.sqls = append(p.sqls, sqlFor(q))
	}
	for _, n := range ns {
		f, err := core.Open(genDir(n), nil)
		if err != nil {
			p.close()
			return nil, err
		}
		p.forests = append(p.forests, f)
	}
	return p, nil
}

// genDir is the directory of a warehouse's current forest generation.
func genDir(n node) string {
	return filepath.Join(n.dir, fmt.Sprintf("gen-%06d", n.wh.Generation()))
}

func (p *probe) close() {
	for _, f := range p.forests {
		f.Close()
	}
}

// repeat is how many times the microsecond-scale calls (parse, plan) run
// per probe, so the timer's own cost is a small share of the span.
const repeat = 8

func (p *probe) run(t *tracer, i int) error {
	q := p.qs[i]
	start := time.Now()
	for k := 0; k < repeat; k++ {
		if _, err := sqlish.Parse(p.sqls[i]); err != nil {
			return err
		}
	}
	t.querySpan("parse", "client", 0, start, time.Since(start)/repeat, 0)
	for shard, f := range p.forests {
		start := time.Now()
		var plan core.PlanInfo
		var err error
		for k := 0; k < repeat; k++ {
			if plan, err = f.Plan(q); err != nil {
				return err
			}
		}
		t.querySpan("plan", "client", shard, start, time.Since(start)/repeat, 0)
		points, st, dur, err := replay(f, plan.Placement, q)
		if err != nil {
			return err
		}
		run := plan.Placement.Run
		perPage := float64(run.Points) / float64(max(int64(run.LastLeaf)-int64(run.FirstLeaf)+1, 1))
		t.add(span{Layer: "rtree", Parent: "client", Op: t.op.Load(), Shard: shard,
			StartNS: int64(time.Now().Add(-dur).Sub(t.t0)), DurNS: int64(dur),
			N: points, Pages: st.LeafPagesRead, Skipped: st.LeafPagesSkipped,
			Stored: int64(float64(st.LeafPagesRead) * perPage)})
	}
	if p.fold {
		t.mu.Lock()
		parts := make([][]workload.Row, 0, len(t.partials))
		for shard := 0; shard < len(p.forests); shard++ {
			parts = append(parts, t.partials[shard])
		}
		t.mu.Unlock()
		start := time.Now()
		workload.MergePartials(lattice.DefaultSchema(), parts)
		t.querySpan("fold", "client", 0, start, time.Since(start), 0)
	}
	return nil
}

// box rebuilds the search rectangle the forest scans for q on placement
// pl: predicates narrow the view's coordinates, free ones span the whole
// positive domain, and coordinates beyond the view's arity stay [0,0].
func box(dim int, pl core.Placement, q workload.Query) (lo, hi []int64) {
	lo, hi = make([]int64, dim), make([]int64, dim)
	for j, a := range pl.View.Attrs {
		lo[j], hi[j] = 1, math.MaxInt64
		if v, ok := q.FixedValue(a); ok {
			lo[j], hi[j] = v, v
		}
		if r, ok := q.RangeFor(a); ok {
			lo[j], hi[j] = max(r.Lo, 1), r.Hi
		}
	}
	return lo, hi
}

// replay scans q's planned box with a visitor that only counts points.
func replay(f *core.Forest, pl core.Placement, q workload.Query) (int64, rtree.SearchStats, time.Duration, error) {
	tree := f.Tree(pl.Tree)
	lo, hi := box(tree.Dim(), pl, q)
	var st rtree.SearchStats
	var points int64
	start := time.Now()
	err := tree.SearchWithStats(lo, hi, func(_, _ []int64) error {
		points++
		return nil
	}, &st)
	return points, st, time.Since(start), err
}

// encKernels times the enc kernels over the coordinate columns of the top
// view, cut into leaf-sized blocks from Tree.RunIterator and bit-packed the
// way v2 leaves pack them. It returns ns per value of FilterPackedRange
// and UnpackColumn (each the median of several timed rounds) and packed
// bytes per value.
func encKernels(f *core.Forest, budget time.Duration) (filterNS, unpackNS, bytesPerValue float64, err error) {
	var top core.Placement
	for _, pl := range f.Placements() {
		if pl.View.Arity() > top.View.Arity() {
			top = pl
		}
	}
	type block struct {
		buf       []byte
		n         int
		base      int64
		width     uint
		lo, hi    int64
		unpacked  []int64
		selection []uint64
	}
	const blockLen = 512
	var blocks []block
	cols := make([][]int64, top.View.Arity())
	flush := func() {
		for _, vals := range cols {
			if len(vals) == 0 {
				continue
			}
			lo, hi := slices.Min(vals), slices.Max(vals)
			w := enc.BitWidth64(lo, hi)
			b := block{buf: make([]byte, enc.PackedColumnBytes(len(vals), w)), n: len(vals), base: lo, width: w,
				lo: lo + (hi-lo)/3, hi: lo + (hi-lo)/3 + (hi-lo)/50,
				unpacked: make([]int64, len(vals)), selection: make([]uint64, enc.SelectionWords(len(vals)))}
			enc.PackColumn(b.buf, vals, lo, w)
			blocks = append(blocks, b)
		}
		for j := range cols {
			cols[j] = cols[j][:0]
		}
	}
	it := f.Tree(top.Tree).RunIterator(top.Run)
	defer it.Close()
	for {
		coords, _, err := it.Next()
		if rtree.Done(err) {
			break
		}
		if err != nil {
			return 0, 0, 0, err
		}
		for j := range cols {
			cols[j] = append(cols[j], coords[j])
		}
		if len(cols[0]) == blockLen {
			flush()
		}
	}
	flush()
	var values, bytes int
	for _, b := range blocks {
		values += b.n
		bytes += len(b.buf)
	}
	if values == 0 {
		return 0, 0, 0, fmt.Errorf("top view %s is empty", top.View)
	}
	rounds := func(kernel func(b *block)) float64 {
		var per []float64
		deadline := time.Now().Add(budget)
		for len(per) < 5 || time.Now().Before(deadline) {
			start := time.Now()
			for i := range blocks {
				kernel(&blocks[i])
			}
			per = append(per, float64(time.Since(start).Nanoseconds())/float64(values))
		}
		return median(per)
	}
	filterNS = rounds(func(b *block) {
		enc.FillSelection(b.selection, b.n)
		enc.FilterPackedRange(b.buf, b.n, b.base, b.width, b.lo, b.hi, b.selection)
	})
	unpackNS = rounds(func(b *block) {
		enc.UnpackColumn(b.buf, b.n, b.base, b.width, b.unpacked)
	})
	return filterNS, unpackNS, float64(bytes) / float64(values), nil
}

// refreshPhases reads the newest "refresh" trace each warehouse observer
// recorded and returns the delta-sort and merge-pack durations of the
// slowest node; the nodes of a cluster prepare in parallel.
func refreshPhases(observers []*obs.Observer) (sort, merge time.Duration, err error) {
	for _, o := range observers {
		var root *obs.SpanSnapshot
		for _, s := range o.Tracer.Snapshot() {
			if s.Name == "refresh" && !s.Running {
				root = &s
				break
			}
		}
		if root == nil {
			return 0, 0, fmt.Errorf("no completed refresh trace recorded")
		}
		for _, c := range root.Children {
			switch c.Name {
			case "delta-sort":
				sort = max(sort, time.Duration(c.DurationNS))
			case "merge-pack":
				merge = max(merge, time.Duration(c.DurationNS))
			}
		}
	}
	return sort, merge, nil
}
