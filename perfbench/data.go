package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"

	"cubetree/internal/lattice"
	"cubetree/internal/tpcd"
	"cubetree/internal/workload"
)

const (
	attrP = tpcd.AttrPart
	attrS = tpcd.AttrSupplier
	attrC = tpcd.AttrCustomer
)

// dims is the order of a fact's keys in fact.key and in the oracle's bounds.
var dims = [3]lattice.Attr{attrP, attrS, attrC}

// fact is one generated TPC-D line item reduced to the three keys the
// views group by and its quantity measure.
type fact struct {
	key [3]int64
	qty int64
}

// genFacts drains a tpcd iterator into memory, so set-up timings cover the
// warehouse load and not the generator.
func genFacts(it *tpcd.Iterator) []fact {
	out := make([]fact, 0, it.Remaining())
	for it.Next() {
		f := it.Fact()
		out = append(out, fact{key: [3]int64{f.PartKey, f.SuppKey, f.CustKey}, qty: f.Quantity})
	}
	return out
}

// factRows replays facts as a cube.RowIter.
type factRows struct {
	facts []fact
	i     int
}

func (r *factRows) Next() bool {
	r.i++
	return r.i <= len(r.facts)
}

func (r *factRows) Value(a lattice.Attr) (int64, error) {
	for j, d := range dims {
		if d == a {
			return r.facts[r.i-1].key[j], nil
		}
	}
	return 0, fmt.Errorf("perfbench: no attribute %q", a)
}

func (r *factRows) Measure() int64 { return r.facts[r.i-1].qty }

// factsCSV renders facts as the CSV document /admin/refresh accepts.
func factsCSV(facts []fact) []byte {
	b := []byte("partkey,suppkey,custkey,quantity\n")
	for _, f := range facts {
		for _, v := range f.key {
			b = strconv.AppendInt(b, v, 10)
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, f.qty, 10)
		b = append(b, '\n')
	}
	return b
}

// shape is one query template: group by node, with either an equality
// predicate on fixed or a range predicate on ranged.
type shape struct {
	node   []lattice.Attr
	fixed  lattice.Attr
	ranged lattice.Attr
}

// reportShapes are roll-up reports over a narrow custkey band. custkey is
// the last coordinate of every view holding it, so the band is contiguous
// in pack order and the answer has hundreds of rows.
var reportShapes = []shape{
	{node: []lattice.Attr{attrP, attrC}, ranged: attrC},
	{node: []lattice.Attr{attrS, attrC}, ranged: attrC},
	{node: []lattice.Attr{attrP, attrS, attrC}, ranged: attrC},
	{node: []lattice.Attr{attrC}, ranged: attrC},
}

// rollupShapes fix partkey or suppkey. Neither is the last coordinate of
// the view that answers them, so every query scans that whole view.
var rollupShapes = []shape{
	{node: []lattice.Attr{attrP, attrS, attrC}, fixed: attrP},
	{node: []lattice.Attr{attrP, attrS, attrC}, fixed: attrS},
	{node: []lattice.Attr{attrP, attrC}, fixed: attrP},
	{node: []lattice.Attr{attrS, attrC}, fixed: attrS},
}

// reportBandShare is the custkey range width of a report as a share of the
// custkey domain.
const reportBandShare = 0.003

// makeQueries draws n queries cycling through shapes, with predicate
// values drawn from rng.
func makeQueries(rng *rand.Rand, shapes []shape, domains map[lattice.Attr]int64, n int) []workload.Query {
	qs := make([]workload.Query, n)
	for i := range qs {
		sh := shapes[i%len(shapes)]
		q := workload.Query{Node: sh.node}
		if sh.fixed != "" {
			q.Fixed = []workload.Pred{{Attr: sh.fixed, Value: 1 + rng.Int64N(domains[sh.fixed])}}
		}
		if sh.ranged != "" {
			dom := domains[sh.ranged]
			width := int64(float64(dom)*reportBandShare + 0.5)
			if width < 1 {
				width = 1
			}
			lo := 1 + rng.Int64N(dom-width+1)
			q.Ranges = []workload.Range{{Attr: sh.ranged, Lo: lo, Hi: lo + width - 1}}
		}
		qs[i] = q
	}
	return qs
}

// sqlFor renders q in the server's SQL dialect with sum and count columns,
// so an HTTP answer carries the same values as an in-process one.
func sqlFor(q workload.Query) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for _, a := range q.Node {
		b.WriteString(string(a))
		b.WriteString(", ")
	}
	b.WriteString("sum(quantity), count(*) FROM sales")
	var preds []string
	for _, p := range q.Fixed {
		preds = append(preds, fmt.Sprintf("%s = %d", p.Attr, p.Value))
	}
	for _, r := range q.Ranges {
		preds = append(preds, fmt.Sprintf("%s BETWEEN %d AND %d", r.Attr, r.Lo, r.Hi))
	}
	if len(preds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(preds, " AND "))
	}
	if len(q.Node) > 0 {
		b.WriteString(" GROUP BY ")
		for i, a := range q.Node {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(string(a))
		}
	}
	return b.String()
}

// oracle answers a fixed set of queries by full scans over the facts it
// is fed: the reference every engine answer is checked against. It shares
// no code with the engine beyond the Row type and the canonical row order.
type oracle struct {
	qs []oracleQuery
}

type oracleQuery struct {
	lo, hi [3]int64
	group  []int
	groups map[[3]int64]*[2]int64
}

func newOracle(qs []workload.Query) *oracle {
	o := &oracle{qs: make([]oracleQuery, len(qs))}
	for i, q := range qs {
		b := &o.qs[i]
		b.groups = map[[3]int64]*[2]int64{}
		for j, d := range dims {
			b.lo[j], b.hi[j] = math.MinInt64, math.MaxInt64
			if v, ok := q.FixedValue(d); ok {
				b.lo[j], b.hi[j] = v, v
			}
			if r, ok := q.RangeFor(d); ok {
				b.lo[j], b.hi[j] = r.Lo, r.Hi
			}
		}
		for _, a := range q.Node {
			for j, d := range dims {
				if d == a {
					b.group = append(b.group, j)
				}
			}
		}
	}
	return o
}

// add scans facts once, folding each into every query it matches.
func (o *oracle) add(facts []fact) {
	for _, f := range facts {
	next:
		for i := range o.qs {
			b := &o.qs[i]
			for j := range dims {
				if f.key[j] < b.lo[j] || f.key[j] > b.hi[j] {
					continue next
				}
			}
			var k [3]int64
			for gi, j := range b.group {
				k[gi] = f.key[j]
			}
			agg := b.groups[k]
			if agg == nil {
				agg = new([2]int64)
				b.groups[k] = agg
			}
			agg[0] += f.qty
			agg[1]++
		}
	}
}

// rows returns query i's answer over every fact added so far.
func (o *oracle) rows(i int) []workload.Row {
	b := &o.qs[i]
	rows := make([]workload.Row, 0, len(b.groups))
	for k, agg := range b.groups {
		rows = append(rows, workload.Row{Group: append([]int64(nil), k[:len(b.group)]...), Sum: agg[0], Count: agg[1]})
	}
	workload.SortRows(rows)
	return rows
}

// expectedDigests returns digests[g][i], the digest of query i's answer
// over base plus the first g increments.
func expectedDigests(base []fact, incs [][]fact, qs []workload.Query) [][]uint64 {
	o := newOracle(qs)
	o.add(base)
	out := make([][]uint64, 0, len(incs)+1)
	for g := 0; ; g++ {
		ds := make([]uint64, len(qs))
		for i := range qs {
			ds[i] = rowsDigest(o.rows(i))
		}
		out = append(out, ds)
		if g == len(incs) {
			return out
		}
		o.add(incs[g])
	}
}

// grandTotal returns the sum and count of every fact's quantity.
func grandTotal(facts []fact) (sum, count int64) {
	for _, f := range facts {
		sum += f.qty
	}
	return sum, int64(len(facts))
}

// digest is a 64-bit hash over a result's values in row order, so an
// answer is checked without keeping every expected row in memory.
type digest uint64

func (d *digest) add(v int64) {
	x := uint64(*d) ^ uint64(v)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	*d = digest(x)
}

func rowsDigest(rows []workload.Row) uint64 {
	d := digest(0x9e3779b97f4a7c15)
	for _, r := range rows {
		for _, g := range r.Group {
			d.add(g)
		}
		d.add(r.Sum)
		d.add(r.Count)
	}
	d.add(int64(len(rows)))
	return uint64(d)
}

// cellsDigest hashes an HTTP answer, whose cells are the group values
// followed by sum and count, exactly as rowsDigest hashes rows.
func cellsDigest(cells [][]string) (uint64, error) {
	d := digest(0x9e3779b97f4a7c15)
	for _, row := range cells {
		for _, c := range row {
			v, err := strconv.ParseInt(c, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("perfbench: non-integer cell %q", c)
			}
			d.add(v)
		}
	}
	d.add(int64(len(cells)))
	return uint64(d), nil
}
