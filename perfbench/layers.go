package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cubetree/internal/obs"
)

// measureTraced is the traced run. The measured time is split in two
// halves of closed-loop queries: the first untraced, for the process
// counters and the untraced rate; the second with the decorators recording
// spans and a probe of direct layer calls after each query. The refresh
// phase then runs with an observer on every warehouse, whose refresh
// traces give the delta-sort and merge-pack times.
func (b *bench) measureTraced(ctx context.Context) (map[string]metric, error) {
	ns := b.sys.nodes()
	seq := 0
	b.runLoop(ctx, &seq, until(warmUp), fixedGen, nil)

	io0, cpu0 := statsSum(ns), cpuTime()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	u := b.runLoop(ctx, &seq, until(b.phase1/2), fixedGen, nil).lat
	runtime.ReadMemStats(&ms1)
	io1, cpu1 := statsSum(ns), cpuTime()
	nq := float64(len(u))
	if nq == 0 {
		return nil, fmt.Errorf("no queries completed")
	}
	io := io1.Sub(io0)
	m := map[string]metric{
		"proc.cpu_us_per_query":      {float64((cpu1 - cpu0).Microseconds()) / nq, "us"},
		"proc.allocs_per_query":      {float64(ms1.Mallocs-ms0.Mallocs) / nq, "count"},
		"proc.alloc_bytes_per_query": {float64(ms1.TotalAlloc-ms0.TotalAlloc) / nq, "B"},
		"proc.gc_per_1k_queries":     {float64(ms1.NumGC-ms0.NumGC) * 1000 / nq, "count"},
		"pager.hit_ratio":            {ratio(io.PoolHits, io.PoolHits+io.PoolMisses), "ratio"},
		"pager.misses_per_query":     {float64(io.PoolMisses) / nq, "count"},
		"pager.waits_per_query":      {float64(io.PoolWaits) / nq, "count"},
		"pager.crc_checks_per_query": {float64(io.ChecksumsVerified) / nq, "count"},
		"trace.qps_untraced":         {nq / (sum(u) / 1e3), "1/s"},
	}

	_, cluster := b.sys.(*clusterSystem)
	pr, err := openProbe(ns, b.qs, cluster)
	if err != nil {
		return nil, err
	}
	filterNS, unpackNS, bytesPerValue, err := encKernels(pr.forests[0], 200*time.Millisecond)
	if err != nil {
		pr.close()
		return nil, err
	}
	m["enc.filter_ns_per_value"] = metric{filterNS, "ns"}
	m["enc.unpack_ns_per_value"] = metric{unpackNS, "ns"}
	m["enc.bytes_per_value"] = metric{bytesPerValue, "B"}

	wire0, shed0 := b.tr.wireBytes.Load(), b.tr.sheds.Load()
	b.tr.on.Store(true)
	b.runLoop(ctx, &seq, until(b.phase1/2), fixedGen, func(i int) error { return pr.run(b.tr, i) })
	b.tr.on.Store(false)
	wire, sheds := b.tr.wireBytes.Load()-wire0, b.tr.sheds.Load()-shed0
	pr.close()

	observers := make([]*obs.Observer, len(ns))
	for i, n := range ns {
		observers[i] = obs.New(obs.Options{TraceCapacity: 4096})
		n.wh.SetObserver(observers[i])
	}
	var sorts, merges []float64
	w0 := statsSum(ns)
	delta0 := b.tr.deltaRows.Load()
	b.refreshPhase(ctx, &seq, func() error {
		s, mp, err := refreshPhases(observers)
		sorts = append(sorts, s.Seconds())
		merges = append(merges, mp.Seconds())
		return err
	})
	w := statsSum(ns).Sub(w0)
	var deltaRows int64
	for _, inc := range b.incs {
		deltaRows += int64(len(inc))
	}
	if got := b.tr.deltaRows.Load() - delta0; cluster && got != deltaRows {
		b.ops.note(fmt.Errorf("workers parsed %d delta rows, the increments hold %d", got, deltaRows))
	}
	writes := w.SeqWrites + w.RandWrites
	m["pager.pages_written_per_delta_row"] = metric{float64(writes) / float64(deltaRows), "count"}
	m["pager.seq_write_ratio"] = metric{ratio(w.SeqWrites, writes), "ratio"}
	m["cube.delta_sort_s_per_refresh"] = metric{median(sorts), "s"}
	m["core.merge_pack_s_per_refresh"] = metric{median(merges), "s"}

	b.tr.mu.Lock()
	spans := append([]span(nil), b.tr.spans...)
	b.tr.mu.Unlock()
	for k, v := range queryLayers(spans, len(ns), float64(wire), float64(sheds)) {
		m[k] = v
	}
	for k, v := range refreshLayers(spans) {
		m[k] = v
	}
	m["trace.overhead_ratio"] = metric{m["trace.qps_untraced"].Value/m["trace.qps_traced"].Value - 1, "ratio"}
	return m, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// opTotals gathers one query's spans.
type opTotals struct {
	client, http, coord            float64 // ns
	whSum, whMax, whMin            float64 // ns over the shards' warehouse calls
	whCalls                        int
	whRows, clientRows, respBytes  int64
	rtree, plan, parse, fold       float64 // ns
	points, pages, skipped, stored int64
}

// queryLayers turns the traced half's query spans into per-layer means.
// Off-path layers (the HTTP server under a local or cluster workload, the
// dist wire under a single-node one) report 0.
func queryLayers(spans []span, shards int, wireBytes, sheds float64) map[string]metric {
	ops := map[int64]*opTotals{}
	for _, s := range spans {
		if s.Refresh {
			continue
		}
		o := ops[s.Op]
		if o == nil {
			o = &opTotals{whMin: -1}
			ops[s.Op] = o
		}
		d := float64(s.DurNS)
		switch s.Layer {
		case "client":
			o.client, o.clientRows = d, s.N
		case "http":
			o.http, o.respBytes = d, s.N
		case "coordinator":
			o.coord = d
		case "warehouse":
			o.whSum += d
			o.whMax = max(o.whMax, d)
			if o.whMin < 0 || d < o.whMin {
				o.whMin = d
			}
			o.whCalls++
			o.whRows += s.N
		case "rtree":
			o.rtree += d
			o.points += s.N
			o.pages += s.Pages
			o.skipped += s.Skipped
			o.stored += s.Stored
		case "plan":
			o.plan += d
		case "parse":
			o.parse += d
		case "fold":
			o.fold += d
		}
	}
	var t opTotals
	var n, httpSelf, wire, skew, residual float64
	var extraCalls int
	for _, o := range ops {
		if o.client == 0 {
			continue
		}
		n++
		t.client += o.client
		t.whSum += o.whSum
		t.whRows += o.whRows
		t.clientRows += o.clientRows
		t.respBytes += o.respBytes
		t.rtree += o.rtree
		t.plan += o.plan
		t.parse += o.parse
		t.fold += o.fold
		t.points += o.points
		t.pages += o.pages
		t.skipped += o.skipped
		t.stored += o.stored
		path := o.whMax // the warehouse is the front door of a local workload
		switch {
		case o.http > 0:
			httpSelf += o.http - o.whSum
			path = o.http
		case o.coord > 0:
			wire += o.coord - o.whMax
			skew += o.whMax - max(o.whMin, 0)
			extraCalls += o.whCalls - shards
			path = o.coord
		}
		residual += o.client - path
	}
	if n == 0 {
		return map[string]metric{}
	}
	us := func(ns float64) float64 { return ns / n / 1e3 }
	perRow := func(x float64, rows int64) float64 {
		if rows == 0 {
			return 0
		}
		return x / float64(rows)
	}
	return map[string]metric{
		"trace.qps_traced":                {n / (t.client / 1e9), "1/s"},
		"trace.residual_us_per_query":     {us(residual), "us"},
		"server.self_us_per_query":        {us(httpSelf), "us"},
		"server.resp_bytes_per_row":       {perRow(float64(t.respBytes), t.clientRows), "B"},
		"server.shed_ratio":               {sheds / n, "ratio"},
		"sqlish.parse_us_per_query":       {us(t.parse), "us"},
		"warehouse.us_per_query":          {us(t.whSum), "us"},
		"warehouse.rows_per_query":        {float64(t.whRows) / n, "count"},
		"core.plan_us_per_query":          {us(t.plan), "us"},
		"core.aggregate_us_per_query":     {us(t.whSum - t.rtree), "us"},
		"core.points_per_row":             {perRow(float64(t.points), t.whRows), "count"},
		"rtree.scan_us_per_query":         {us(t.rtree), "us"},
		"rtree.ns_per_point":              {perRow(t.rtree, t.stored), "ns"},
		"rtree.leaf_pages_read_per_query": {float64(t.pages) / n, "count"},
		"rtree.zone_skip_ratio":           {perRow(float64(t.skipped), t.pages+t.skipped), "ratio"},
		"dist.wire_us_per_query":          {us(wire), "us"},
		"dist.wire_bytes_per_row":         {perRow(wireBytes, t.clientRows), "B"},
		"dist.shard_skew_us":              {us(skew), "us"},
		"dist.retries_per_query":          {float64(extraCalls) / n, "count"},
		"workload.fold_us_per_query":      {us(t.fold), "us"},
	}
}

// refreshLayers turns the refresh phase's spans into per-refresh medians;
// a node's prepare and commit run in parallel with the other nodes', so
// each refresh counts its slowest node.
func refreshLayers(spans []span) map[string]metric {
	type refresh struct{ partition, prepare, commit float64 }
	rs := map[int64]*refresh{}
	for _, s := range spans {
		if !s.Refresh {
			continue
		}
		r := rs[s.Op]
		if r == nil {
			r = &refresh{}
			rs[s.Op] = r
		}
		d := float64(s.DurNS)
		switch s.Layer {
		case "partition":
			r.partition = max(r.partition, d)
		case "prepare":
			r.prepare = max(r.prepare, d)
		case "commit":
			r.commit = max(r.commit, d)
		}
	}
	var part, prep, commit []float64
	for _, r := range rs {
		part = append(part, r.partition/1e6)
		prep = append(prep, r.prepare/1e9)
		commit = append(commit, r.commit/1e6)
	}
	return map[string]metric{
		"dist.partition_ms_per_refresh": {median(part), "ms"},
		"dist.prepare_s_per_refresh":    {median(prep), "s"},
		"dist.commit_ms_per_refresh":    {median(commit), "ms"},
	}
}
