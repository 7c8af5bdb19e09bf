package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"cubetree"
	"cubetree/internal/dist"
	"cubetree/internal/lattice"
	"cubetree/internal/pager"
	"cubetree/internal/server"
	"cubetree/internal/workload"
)

// views is the materialized view set: the top view, the two pairs the
// reports and scans route to, and the single-attribute roll-ups.
var views = []cubetree.View{
	cubetree.NewView("psc", attrP, attrS, attrC),
	cubetree.NewView("ps", attrP, attrS),
	cubetree.NewView("sc", attrS, attrC),
	cubetree.NewView("p", attrP),
	cubetree.NewView("s", attrS),
	cubetree.NewView("c", attrC),
	cubetree.NewView("all"),
}

// node is one warehouse of a system with the I/O counters it was built
// with.
type node struct {
	wh    *cubetree.Warehouse
	stats *pager.Stats
	dir   string
}

func materialize(dir string, domains map[lattice.Attr]int64, facts []fact, poolPages int) (node, error) {
	stats := &pager.Stats{}
	wh, err := cubetree.Materialize(cubetree.Config{
		Dir:       dir,
		Domains:   domains,
		PoolPages: poolPages,
		Stats:     stats,
	}, views, &factRows{facts: facts})
	if err != nil {
		return node{}, fmt.Errorf("materialize %s: %w", dir, err)
	}
	return node{wh: wh, stats: stats, dir: dir}, nil
}

// answer is one query's result as the front door returned it: engine rows
// in process, the undecoded /query body over HTTP. Decoding is the
// client's work, so it happens after the latency is taken.
type answer struct {
	rows []workload.Row
	body []byte
}

// digest returns the answer's digest and row count.
func (a answer) digest() (uint64, int, error) {
	if a.body == nil {
		return rowsDigest(a.rows), len(a.rows), nil
	}
	res, err := decodeStatement(a.body)
	if err != nil {
		return 0, 0, err
	}
	d, err := cellsDigest(res.Rows)
	return d, len(res.Rows), err
}

// system is one workload's serving stack: the front door the client talks
// to and the warehouses behind it.
type system interface {
	// query answers query i of the workload's pool.
	query(ctx context.Context, i int) (answer, error)
	// total answers the grand total through the same front door.
	total(ctx context.Context) (sum, count int64, err error)
	// refresh applies one increment through the same front door.
	refresh(ctx context.Context, inc []fact) error
	nodes() []node
	close() error
}

func closeNodes(ns []node) error {
	var errs []error
	for _, n := range ns {
		if n.wh != nil {
			errs = append(errs, n.wh.Close())
		}
	}
	return errors.Join(errs...)
}

// localSystem queries one warehouse in process.
type localSystem struct {
	n  node
	qs []workload.Query
	tr *tracer
}

func openLocal(dir string, domains map[lattice.Attr]int64, facts []fact, poolPages int, qs []workload.Query, tr *tracer) (system, error) {
	n, err := materialize(filepath.Join(dir, "node"), domains, facts, poolPages)
	if err != nil {
		return nil, err
	}
	return &localSystem{n: n, qs: qs, tr: tr}, nil
}

func (s *localSystem) query(ctx context.Context, i int) (answer, error) {
	start := time.Now()
	rows, err := s.n.wh.QueryCtx(ctx, s.qs[i])
	s.tr.querySpan("warehouse", "client", 0, start, time.Since(start), int64(len(rows)))
	return answer{rows: rows}, err
}

func (s *localSystem) total(ctx context.Context) (int64, int64, error) {
	return rowsTotal(s.n.wh.QueryCtx(ctx, workload.Query{}))
}

func (s *localSystem) refresh(_ context.Context, inc []fact) error {
	return s.n.wh.Update(&factRows{facts: inc})
}

func (s *localSystem) nodes() []node { return []node{s.n} }
func (s *localSystem) close() error  { return closeNodes(s.nodes()) }

func rowsTotal(rows []workload.Row, err error) (int64, int64, error) {
	if err != nil {
		return 0, 0, err
	}
	if len(rows) != 1 {
		return 0, 0, fmt.Errorf("grand total has %d rows", len(rows))
	}
	return rows[0].Sum, rows[0].Count, nil
}

// httpSystem serves one warehouse through server.New on a loopback port
// with the result cache off, and queries it with a keep-alive client.
type httpSystem struct {
	n      node
	sqls   []string
	url    string
	hs     *http.Server
	served chan error
	client *http.Client
	tr     *tracer
}

func openHTTP(dir string, domains map[lattice.Attr]int64, facts []fact, poolPages int, qs []workload.Query, tr *tracer) (system, error) {
	n, err := materialize(filepath.Join(dir, "node"), domains, facts, poolPages)
	if err != nil {
		return nil, err
	}
	var store server.Store = n.wh
	if tr != nil {
		store = tracedStore{Store: n.wh, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.wh.Close()
		return nil, err
	}
	s := &httpSystem{
		n:      n,
		url:    "http://" + ln.Addr().String(),
		hs:     &http.Server{Handler: server.New(server.Config{Store: store, CacheEntries: -1}).Handler()},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
		tr:     tr,
	}
	for _, q := range qs {
		s.sqls = append(s.sqls, sqlFor(q))
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// post sends body to path and returns the response body of a 200 answer.
// Any other status, 429 and 503 included, is an error: the client does not
// retry, so shed requests count as failures.
func (s *httpSystem) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	res, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	out, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		s.tr.shed(res.StatusCode)
		return nil, fmt.Errorf("POST %s: status %d: %s", path, res.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, nil
}

func (s *httpSystem) statement(ctx context.Context, sql string) ([]byte, error) {
	start := time.Now()
	body, err := s.post(ctx, "/query", []byte(sql))
	s.tr.querySpan("http", "client", 0, start, time.Since(start), int64(len(body)))
	return body, err
}

// decodeStatement decodes a /query answer to its single statement.
func decodeStatement(body []byte) (server.StatementResult, error) {
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return server.StatementResult{}, fmt.Errorf("decode /query answer: %w", err)
	}
	if len(resp.Results) != 1 {
		return server.StatementResult{}, fmt.Errorf("/query answered %d results for one statement", len(resp.Results))
	}
	return resp.Results[0], nil
}

func (s *httpSystem) query(ctx context.Context, i int) (answer, error) {
	body, err := s.statement(ctx, s.sqls[i])
	return answer{body: body}, err
}

func (s *httpSystem) total(ctx context.Context) (int64, int64, error) {
	body, err := s.statement(ctx, "SELECT sum(quantity), count(*) FROM sales")
	if err != nil {
		return 0, 0, err
	}
	res, err := decodeStatement(body)
	if err != nil {
		return 0, 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 2 {
		return 0, 0, fmt.Errorf("grand total answered %v", res.Rows)
	}
	var sum, count int64
	if _, err := fmt.Sscan(res.Rows[0][0]+" "+res.Rows[0][1], &sum, &count); err != nil {
		return 0, 0, fmt.Errorf("grand total answered %v: %w", res.Rows, err)
	}
	return sum, count, nil
}

func (s *httpSystem) refresh(ctx context.Context, inc []fact) error {
	body, err := s.post(ctx, "/admin/refresh?measure=quantity", factsCSV(inc))
	if err != nil {
		return err
	}
	var rr server.RefreshResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return fmt.Errorf("decode /admin/refresh answer: %w", err)
	}
	if rr.Rows != int64(len(inc)) {
		return fmt.Errorf("/admin/refresh applied %d rows, sent %d", rr.Rows, len(inc))
	}
	return nil
}

func (s *httpSystem) nodes() []node { return []node{s.n} }

func (s *httpSystem) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.client.CloseIdleConnections()
	return errors.Join(err, closeNodes(s.nodes()))
}

// clusterSystem runs a coordinator and shards dist.Workers on loopback in
// this process, each worker serving its own warehouse.
type clusterSystem struct {
	ns      []node
	workers []*dist.Worker
	served  chan error
	coord   *dist.Coordinator
	qs      []workload.Query
	tr      *tracer
}

func openCluster(dir string, domains map[lattice.Attr]int64, facts []fact, poolPages int, qs []workload.Query, tr *tracer) (_ system, err error) {
	s := &clusterSystem{qs: qs, tr: tr, served: make(chan error, shards)}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	attrs := dist.SortedAttrs(domains)
	parts := make([][]fact, shards)
	vals := make([]int64, len(attrs))
	for _, f := range facts {
		for i, a := range attrs {
			for j, d := range dims {
				if d == a {
					vals[i] = f.key[j]
				}
			}
		}
		k := dist.ShardOf(vals, shards)
		parts[k] = append(parts[k], f)
	}
	var addrs []string
	for i := 0; i < shards; i++ {
		n, err := materialize(filepath.Join(dir, fmt.Sprintf("shard%d", i)), domains, parts[i], poolPages)
		if err != nil {
			return nil, err
		}
		s.ns = append(s.ns, n)
		backend := cubetree.ShardBackend(n.wh)
		csv := dist.CSVSource(cubetree.ShardCSV)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		if tr != nil {
			backend = tracedBackend{Backend: backend, tr: tr, shard: i}
			csv = tr.csvSource(csv)
			ln = countingListener{Listener: ln, bytes: &tr.wireBytes}
		}
		wk := dist.NewWorker(backend, csv, nil)
		s.workers = append(s.workers, wk)
		addrs = append(addrs, ln.Addr().String())
		go func() { s.served <- wk.Serve(ln) }()
	}
	if s.coord, err = dist.NewCoordinator(dist.CoordinatorConfig{Shards: addrs}); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *clusterSystem) query(ctx context.Context, i int) (answer, error) {
	start := time.Now()
	rows, err := s.coord.QueryCtx(ctx, s.qs[i])
	s.tr.querySpan("coordinator", "client", 0, start, time.Since(start), int64(len(rows)))
	return answer{rows: rows}, err
}

func (s *clusterSystem) total(ctx context.Context) (int64, int64, error) {
	return rowsTotal(s.coord.QueryCtx(ctx, workload.Query{}))
}

func (s *clusterSystem) refresh(_ context.Context, inc []fact) error {
	return s.coord.Update(s.tr.partitionRows(&factRows{facts: inc}))
}

func (s *clusterSystem) nodes() []node { return s.ns }

// close stops the coordinator, then every worker, and waits for each
// worker's Serve to return before closing the warehouses under them.
func (s *clusterSystem) close() error {
	var errs []error
	if s.coord != nil {
		errs = append(errs, s.coord.Close())
	}
	for _, wk := range s.workers {
		errs = append(errs, wk.Close())
	}
	for range s.workers {
		errs = append(errs, <-s.served)
	}
	errs = append(errs, closeNodes(s.ns))
	return errors.Join(errs...)
}
