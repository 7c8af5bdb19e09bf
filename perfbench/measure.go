package main

import (
	"cmp"
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile; with fewer, the percentile is the noise of a handful of
// samples and the benchmark refuses to report it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and the
// number of samples strictly above its rank. It fails when fewer than
// minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, int, error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("percentile of no samples")
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	beyond := len(s) - 1 - rank
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, len(s), beyond, minBeyond)
	}
	return s[rank], beyond, nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowLen is the fewest queries a latency figure is computed over:
// enough that its p99 has at least minBeyond samples beyond it.
const windowLen = 100 * minBeyond

// windowDur is the length of one window of a closed loop. The host's steal
// (time it runs other guests on this guest's CPUs) is read at the end of
// every window.
const windowDur = 250 * time.Millisecond

// cleanShare is the least share of a loop's queries its figures are
// computed over.
const cleanShare = 0.1

// loop is a closed loop's per-query latencies in ms, cut into windows of
// windowDur.
type loop struct {
	lat []float64
	win []window
}

// window is one window of a loop: its queries are lat[lo:hi], and the
// host stole steal clock ticks of CPU time while it ran.
type window struct {
	lo, hi int
	steal  int64
}

// windowClock cuts a loop into windows, reading the steal counter at each
// window's end.
type windowClock struct {
	next  time.Time
	steal int64
}

func startWindows() windowClock {
	return windowClock{next: time.Now().Add(windowDur), steal: stealTicks()}
}

// tick closes the current window of l if it has run its length, or if
// last is set and it holds a query.
func (c *windowClock) tick(l *loop, last bool) {
	lo := 0
	if len(l.win) > 0 {
		lo = l.win[len(l.win)-1].hi
	}
	now := time.Now()
	if len(l.lat) == lo || (!last && now.Before(c.next)) {
		return
	}
	s := stealTicks()
	l.win = append(l.win, window{lo: lo, hi: len(l.lat), steal: s - c.steal})
	c.next, c.steal = now.Add(windowDur), s
}

// stealTicks reads the steal time of all CPUs, in clock ticks, from the
// first line of /proc/stat. It reads 0 where that is not available, and
// then every window looks equally clean.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// clean returns the samples of the windows in which the host stole the
// least CPU time: windows are taken in order of their steal until they
// hold at least least samples, and every window that stole no more than
// the last one taken is taken too. On a host that steals nothing, that is
// every window. A query that waits for a stolen CPU is as slow as the
// steal, not as the program, and steal comes in bursts of seconds that
// hit some windows and spare others.
func clean(l loop, least int) []float64 {
	wins := slices.Clone(l.win)
	slices.SortStableFunc(wins, func(a, b window) int { return cmp.Compare(a.steal, b.steal) })
	n, limit := 0, int64(0)
	for _, w := range wins {
		if n >= least {
			break
		}
		n += w.hi - w.lo
		limit = w.steal
	}
	var pool []float64
	for _, w := range l.win {
		if w.steal <= limit {
			pool = append(pool, l.lat[w.lo:w.hi]...)
		}
	}
	return pool
}

// summary is a closed loop's rate and latency percentiles over its
// cleanest windows (see clean).
type summary struct {
	qps, p50, p99 float64
	share         float64 // share of the loop's queries the figures cover
}

// summarize computes the summary of a loop over its cleanest windows
// holding at least cleanShare of its queries and at least windowLen. The
// rate is the pooled
// queries' count over the sum of their latencies: the rate the system
// served, without the client's own checking between queries.
func summarize(l loop) (summary, error) {
	if len(l.lat) < windowLen {
		return summary{}, fmt.Errorf("%d queries, want at least %d", len(l.lat), windowLen)
	}
	pool := clean(l, max(int(cleanShare*float64(len(l.lat))), windowLen))
	p50, _, err := percentile(pool, 0.50)
	if err != nil {
		return summary{}, err
	}
	p99, _, err := percentile(pool, 0.99)
	if err != nil {
		return summary{}, err
	}
	return summary{
		qps:   float64(len(pool)) / (sum(pool) / 1e3),
		p50:   p50,
		p99:   p99,
		share: float64(len(pool)) / float64(len(l.lat)),
	}, nil
}

// countingListener counts the bytes every accepted connection reads and
// writes, so wire volume is measured where it crosses the socket.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}
