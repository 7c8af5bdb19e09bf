// Command perfbench is the repository's end-to-end benchmark. It generates
// TPC-D facts from a seed, stands up one workload's serving stack, checks
// every answer against a brute-force oracle, and prints the workload's
// metrics as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload report-http --seed 3 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"cubetree"
	"cubetree/internal/lattice"
	"cubetree/internal/pager"
	"cubetree/internal/tpcd"
	"cubetree/internal/workload"
)

const (
	// scaleFactor sizes the fact table: 0.05 of TPC-D's 1 GB database is
	// 300,060 facts.
	scaleFactor = 0.05
	// poolQueries is the number of distinct queries a workload cycles
	// through; the oracle answers every one of them at every generation.
	poolQueries = 64
	// incrementShare is one refresh increment's size as a share of the
	// facts.
	incrementShare = 0.005
	// setupRepeats is how many times a run sets its stack up; setup_s is
	// the median.
	setupRepeats = 3
	// hotPoolPages holds a whole tree, so reports run from the pool.
	hotPoolPages = 2048
	// coldPoolPages is at least 8x smaller than every view a roll-up scan
	// reads, so scans miss the pool on most pages.
	coldPoolPages = 64
	// shards is the cluster size of scatter-refresh.
	shards = 2
	// queryTimeout bounds one query; a query that takes longer fails.
	queryTimeout = 10 * time.Second
	// warmUp is the closed loop run before any measured one, after the
	// verification pass has already touched every query once.
	warmUp = time.Second
)

// workloadDef is one named workload: its query shapes, the buffer pool
// of every tree, the number of refresh increments, and its serving stack.
type workloadDef struct {
	shapes     []shape
	poolPages  int
	increments int
	open       func(dir string, domains map[lattice.Attr]int64, facts []fact, poolPages int, qs []workload.Query, tr *tracer) (system, error)
}

var workloads = map[string]workloadDef{
	"report-http":     {shapes: reportShapes, poolPages: hotPoolPages, increments: 40, open: openHTTP},
	"rollup-scan":     {shapes: rollupShapes, poolPages: coldPoolPages, increments: 60, open: openLocal},
	"scatter-refresh": {shapes: reportShapes, poolPages: hotPoolPages, increments: 100, open: openCluster},
}

func main() {
	os.Exit(run())
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	name := flag.String("workload", "", "workload: report-http, rollup-scan or scatter-refresh")
	seed := flag.Uint64("seed", 1, "seed of the generated facts, increments and queries")
	seconds := flag.Float64("seconds", 30, "seconds of closed-loop queries before the refresh phase")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the run's warehouses and span files")
	flag.Parse()
	def, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload report-http|rollup-scan|scatter-refresh --seed N --seconds S --trace 0|1")
		return 2
	}
	b := &bench{name: *name, def: def, seed: *seed, phase1: time.Duration(*seconds * float64(time.Second)), out: *out}
	if *trace == 1 {
		b.tr = newTracer()
	}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	name   string
	def    workloadDef
	seed   uint64
	phase1 time.Duration
	out    string
	tr     *tracer

	qs     []workload.Query
	want   [][]uint64 // want[g][i]: digest of query i after g increments
	totals [][2]int64 // totals[g]: grand sum and count after g increments
	incs   [][]fact   // the refresh increments
	ops    opCounter  // every query, refresh and total check
	sys    system
}

// opCounter counts attempted and failed operations across goroutines and
// keeps the first failure for the error report.
type opCounter struct {
	attempted atomic.Int64
	failed    atomic.Int64
	first     atomic.Pointer[error]
}

func (c *opCounter) note(err error) {
	c.attempted.Add(1)
	if err != nil {
		c.failed.Add(1)
		c.first.CompareAndSwap(nil, &err)
	}
}

func (b *bench) run() (*result, error) {
	ds := tpcd.New(tpcd.Params{SF: scaleFactor, Seed: b.seed})
	domains := map[lattice.Attr]int64{attrP: ds.Parts, attrS: ds.Suppliers, attrC: ds.Customers}
	facts := genFacts(ds.FactRows())
	for k := 1; k <= b.def.increments; k++ {
		b.incs = append(b.incs, genFacts(ds.Increment(incrementShare, uint64(k))))
	}
	rng := rand.New(rand.NewPCG(b.seed, 0x243f6a8885a308d3))
	b.qs = makeQueries(rng, b.def.shapes, domains, poolQueries)
	b.want = expectedDigests(facts, b.incs, b.qs)
	sum, count := grandTotal(facts)
	b.totals = append(b.totals, [2]int64{sum, count})
	for _, inc := range b.incs {
		s, c := grandTotal(inc)
		sum, count = sum+s, count+c
		b.totals = append(b.totals, [2]int64{sum, count})
	}

	work := filepath.Join(b.out, "work", fmt.Sprintf("%s-%d", b.name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// Set up several times; keep the last stack for the measurement.
	repeats := setupRepeats
	if b.tr != nil {
		repeats = 1
	}
	var setups []float64
	for r := 0; r < repeats; r++ {
		dir := filepath.Join(work, fmt.Sprintf("setup%d", r))
		start := time.Now()
		sys, err := b.def.open(dir, domains, facts, b.def.poolPages, b.qs, b.tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		fmt.Fprintf(os.Stderr, "perfbench: setup %d took %.3fs\n", r, setups[r])
		if r < repeats-1 {
			if err := sys.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
			continue
		}
		b.sys = sys
	}
	var closed bool
	defer func() {
		if !closed {
			b.sys.close()
		}
	}()
	var stored int64
	for _, n := range b.sys.nodes() {
		stored += n.wh.Stat().Bytes
	}
	storedPerFact := float64(stored) / float64(len(facts))

	ctx := context.Background()
	if err := b.verify(ctx, filepath.Join(work, "single"), domains, facts); err != nil {
		return nil, err
	}
	facts = nil // the oracle is done with the base facts

	var m map[string]metric
	var err error
	if b.tr == nil {
		m, err = b.measure(ctx)
	} else {
		m, err = b.measureTraced(ctx)
	}
	if err != nil {
		return nil, err
	}
	if b.tr == nil {
		m["setup_s"] = metric{median(setups), "s"}
		m["stored_bytes_per_fact"] = metric{storedPerFact, "B"}
		b.incs = nil
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m["live_heap_mb"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MB"}
	}
	closed = true
	if err := b.sys.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if b.tr != nil {
		if err := b.tr.write(filepath.Join(b.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", b.name, b.seed))); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	attempted, failed := b.ops.attempted.Load(), b.ops.failed.Load()
	if p := b.ops.first.Load(); p != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", failed, attempted, *p)
	}
	if b.tr == nil {
		m["answered_ratio"] = metric{float64(attempted-failed) / float64(attempted), "ratio"}
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// verify checks every pool query through the front door, and through a
// second path that must agree with it: the warehouse in process under the
// HTTP server, or a single-node warehouse over the same facts under the
// cluster. It also checks the grand total.
func (b *bench) verify(ctx context.Context, singleDir string, domains map[lattice.Attr]int64, facts []fact) error {
	for i := range b.qs {
		b.ops.note(b.check(ctx, i))
	}
	b.ops.note(b.checkTotal(ctx, 0))
	var second *cubetree.Warehouse
	switch s := b.sys.(type) {
	case *httpSystem:
		second = s.n.wh
	case *clusterSystem:
		n, err := materialize(singleDir, domains, facts, b.def.poolPages)
		if err != nil {
			return err
		}
		defer func() {
			n.wh.Close()
			os.RemoveAll(singleDir)
		}()
		second = n.wh
	default:
		return nil
	}
	for i, q := range b.qs {
		rows, err := second.QueryCtx(ctx, q)
		if err == nil && rowsDigest(rows) != b.want[0][i] {
			err = fmt.Errorf("second path answered %s with a different result", q)
		}
		b.ops.note(err)
	}
	return nil
}

// check runs query i once, with no refresh in flight.
func (b *bench) check(ctx context.Context, i int) error {
	ans, err := b.query(ctx, i)
	if err != nil {
		return err
	}
	_, err = b.compare(i, ans, 0, 0)
	return err
}

func (b *bench) query(ctx context.Context, i int) (answer, error) {
	ctx, cancel := context.WithTimeout(ctx, queryTimeout)
	defer cancel()
	return b.sys.query(ctx, i)
}

// compare checks answer ans to query i against the oracle's answer at
// every generation from lo to hi, and returns its row count.
func (b *bench) compare(i int, ans answer, lo, hi int) (int, error) {
	d, n, err := ans.digest()
	if err != nil {
		return 0, err
	}
	for g := lo; g <= hi && g < len(b.want); g++ {
		if b.want[g][i] == d {
			return n, nil
		}
	}
	return n, fmt.Errorf("wrong answer to %s (%d rows) at generations %d..%d", b.qs[i], n, lo, hi)
}

func (b *bench) checkTotal(ctx context.Context, g int) error {
	ctx, cancel := context.WithTimeout(ctx, queryTimeout)
	defer cancel()
	sum, count, err := b.sys.total(ctx)
	if err != nil {
		return err
	}
	if want := b.totals[g]; sum != want[0] || count != want[1] {
		return fmt.Errorf("grand total after %d increments is sum %d count %d, want %d and %d", g, sum, count, want[0], want[1])
	}
	return nil
}

// runLoop is one client's closed loop: the next query is sent when the
// previous answer has been checked, from sequence number *seq on, until
// stop reports true. gens reports the generations an answer may come
// from at that moment; after, when set, runs after each checked answer.
// It returns every query's latency in ms, cut into windows.
func (b *bench) runLoop(ctx context.Context, seq *int, stop func() bool, gens func() (int, int), after func(i int) error) loop {
	var l loop
	clock := startWindows()
	for !stop() {
		i := *seq % len(b.qs)
		*seq++
		lo, _ := gens()
		b.tr.setOp(int64(*seq))
		start := time.Now()
		ans, err := b.query(ctx, i)
		d := time.Since(start)
		if err == nil {
			_, hi := gens()
			var rows int
			rows, err = b.compare(i, ans, lo, hi)
			b.tr.querySpan("client", "", 0, start, d, int64(rows))
		}
		if err == nil && after != nil {
			err = after(i)
		}
		b.ops.note(err)
		l.lat = append(l.lat, float64(d.Nanoseconds())/1e6)
		clock.tick(&l, false)
	}
	clock.tick(&l, true)
	return l
}

func fixedGen() (int, int) { return 0, 0 }

func until(d time.Duration) func() bool {
	end := time.Now().Add(d)
	return func() bool { return time.Now().After(end) }
}

// refreshPhase applies every increment in a second goroutine while the
// client keeps querying, then joins it; each increment is checked by the
// grand total right after it commits. It returns the queries' latencies
// and every increment's wall time in s, each increment a window of its own.
func (b *bench) refreshPhase(ctx context.Context, seq *int, onRefresh func() error) (lat, wall loop) {
	var applied atomic.Int64
	var finished atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer finished.Store(true)
		for k, inc := range b.incs {
			b.tr.setRefreshOp(int64(k + 1))
			start, steal := time.Now(), stealTicks()
			err := b.sys.refresh(ctx, inc)
			wall.lat = append(wall.lat, time.Since(start).Seconds())
			wall.win = append(wall.win, window{lo: k, hi: k + 1, steal: stealTicks() - steal})
			b.ops.note(err)
			if err != nil {
				return
			}
			applied.Store(int64(k + 1))
			if onRefresh != nil {
				if err := onRefresh(); err != nil {
					b.ops.note(err)
					return
				}
			}
			b.ops.note(b.checkTotal(ctx, k+1))
		}
	}()
	// An increment commits before its refresh call returns, so an answer
	// may already come from the generation after the last one counted.
	gens := func() (int, int) {
		g := int(applied.Load())
		return g, g + 1
	}
	lat = b.runLoop(ctx, seq, finished.Load, gens, nil)
	<-done
	return lat, wall
}

// measure is the untraced run: closed-loop queries for the measured time,
// then the refresh phase.
func (b *bench) measure(ctx context.Context) (map[string]metric, error) {
	seq := 0
	b.runLoop(ctx, &seq, until(warmUp), fixedGen, nil)
	lat := b.runLoop(ctx, &seq, until(b.phase1), fixedGen, nil)
	rlat, wall := b.refreshPhase(ctx, &seq, nil)
	q, err := summarize(lat)
	if err != nil {
		return nil, err
	}
	r, err := summarize(rlat)
	if err != nil {
		return nil, fmt.Errorf("refresh phase: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d queries measured (figures over the cleanest %.0f%%), %d during %d refreshes (%.0f%%)\n",
		b.name, len(lat.lat), 100*q.share, len(rlat.lat), len(wall.lat), 100*r.share)
	return map[string]metric{
		"qps":            {q.qps, "1/s"},
		"p50_ms":         {q.p50, "ms"},
		"p99_ms":         {q.p99, "ms"},
		"refresh_s":      {median(clean(wall, len(wall.lat)/2)), "s"},
		"refresh_p99_ms": {r.p99, "ms"},
	}, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func statsSum(ns []node) pager.StatsSnapshot {
	var s pager.StatsSnapshot
	for _, n := range ns {
		d := n.stats.Snapshot()
		s.SeqWrites += d.SeqWrites
		s.RandWrites += d.RandWrites
		s.PoolHits += d.PoolHits
		s.PoolMisses += d.PoolMisses
		s.PoolWaits += d.PoolWaits
		s.ChecksumsVerified += d.ChecksumsVerified
	}
	return s
}
