package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The closed-loop load generator.  Each connection sends its next request
// only after the previous reply's body has been read, the way uhmd's callers
// (run tools and batch clients) wait for every answer.  Connections draw
// programs from one shared cursor, so the server sees the sequence in order
// whatever the number of connections: that order is what makes the working
// set of each workload cyclic.

// loadStats accumulates one phase's requests.
type loadStats struct {
	attempted int
	failed    int
	// lat holds the client latency of every correct reply, from send to
	// the last byte of the body.
	lat []time.Duration
	// done holds when each correct reply completed, from the phase start.
	done []time.Duration
	// steal holds each slice's share of the machine's CPU time stolen by
	// the hypervisor; nil when /proc/stat could not be read.
	steal    []float64
	elapsed  time.Duration
	firstErr string
}

func (s *loadStats) merge(o *loadStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.lat = append(s.lat, o.lat...)
	s.done = append(s.done, o.done...)
	if s.firstErr == "" {
		s.firstErr = o.firstErr
	}
}

// slice is the length of the intervals the window is cut into.
const slice = 500 * time.Millisecond

// The machine is a virtual one shared with other guests, and the
// hypervisor steals CPU from it: for seconds or minutes on end, a quarter
// of all CPU time or more.  A slice's rate falls roughly in proportion to
// its stolen share (on hot, 5600 replies/s at 2% stolen, 3300 at 21%), so a
// plain average measures the neighbours as much as the program.  Each
// slice's stolen share is read from /proc/stat, and throughput and latency
// are reported at a stolen share of zero: measured on the undisturbed
// slices when there are enough of them, extrapolated along a robust line
// through all slices when there are not.  The raw figures are reported
// beside them.

// stolenTicks returns the machine's cumulative CPU ticks from /proc/stat,
// all of them and those stolen by the hypervisor.
func stolenTicks() (total, stolen int64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, 0, err
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			stolen = v
		}
	}
	return total, stolen, nil
}

// sampleSteal returns the stolen share of each of the n slices from start,
// or nil if /proc/stat cannot be read.
func sampleSteal(start time.Time, n int) []float64 {
	total0, stolen0, err := stolenTicks()
	if err != nil {
		return nil
	}
	shares := make([]float64, n)
	for i := range shares {
		time.Sleep(time.Until(start.Add(time.Duration(i+1) * slice)))
		total, stolen, err := stolenTicks()
		if err != nil {
			return nil
		}
		if total > total0 {
			shares[i] = float64(stolen-stolen0) / float64(total-total0)
		}
		total0, stolen0 = total, stolen
	}
	return shares
}

// calmShare is the stolen share at or below which a slice counts as
// undisturbed, and minCalm is how many undisturbed slices a window needs
// for its figure to be measured on them alone.
const (
	calmShare = 0.02
	minCalm   = 8
)

// minStealSpan is the smallest spread of stolen shares, and minFit the
// fewest slices, that a line is fitted to.
const (
	minStealSpan = 0.03
	minFit       = 16
)

// atNoSteal estimates a per-slice quantity at a stolen share of zero; rises
// says whether the quantity grows as steal falls (a rate) or shrinks (a
// latency).  With enough undisturbed slices it is their interquartile mean.
// Otherwise it is the intercept of the Theil–Sen line through the (share, y)
// points, which is robust to outlying slices; the intercept may move the
// interquartile mean of all slices only the way steal explains, and by at
// most a factor of 3.  Without steal samples, or with too few slices or too
// little spread in their shares to fit, it is the interquartile mean of all
// slices.
func atNoSteal(share, y []float64, rises bool) float64 {
	all := interquartileMean(y)
	if len(share) != len(y) {
		return all
	}
	var calm []float64
	for i, sh := range share {
		if sh <= calmShare {
			calm = append(calm, y[i])
		}
	}
	if len(calm) >= minCalm {
		return interquartileMean(calm)
	}
	if len(y) < minFit || slices.Max(share)-slices.Min(share) < minStealSpan {
		return all
	}
	var slopes []float64
	for i := range y {
		for j := i + 1; j < len(y); j++ {
			if dx := share[j] - share[i]; dx != 0 {
				slopes = append(slopes, (y[j]-y[i])/dx)
			}
		}
	}
	b := median(slopes)
	rest := make([]float64, len(y))
	for i := range y {
		rest[i] = y[i] - b*share[i]
	}
	if rises {
		return min(max(median(rest), all), 3*all)
	}
	return min(max(median(rest), all/3), all)
}

// perSlice splits the phase's whole slices: each one's rate of correct
// replies per second and the median latency of the replies it completed,
// with its stolen share.  Slices with no reply are left out.
func (s *loadStats) perSlice() (share, rate, p50 []float64) {
	n := int(s.elapsed / slice)
	if s.steal != nil {
		n = min(n, len(s.steal))
	}
	lats := make([][]time.Duration, n)
	for j, d := range s.done {
		if i := int(d / slice); i < n {
			lats[i] = append(lats[i], s.lat[j])
		}
	}
	for i, l := range lats {
		if len(l) == 0 {
			continue
		}
		if s.steal != nil {
			share = append(share, s.steal[i])
		}
		rate = append(rate, float64(len(l))/slice.Seconds())
		p50 = append(p50, ms((&loadStats{lat: l}).quantile(0.5)))
	}
	return share, rate, p50
}

// quantile returns the q-quantile of the recorded latencies (nearest rank).
func (s *loadStats) quantile(q float64) time.Duration {
	if len(s.lat) == 0 {
		return 0
	}
	l := slices.Clone(s.lat)
	slices.Sort(l)
	i := int(q*float64(len(l))+0.5) - 1
	return l[max(0, min(i, len(l)-1))]
}

// client is one kept-alive HTTP/1.1 connection, written and read by the
// calling goroutine alone.  net/http's Transport would add two goroutines
// and their wake-ups to every request; on a machine with two CPUs shared
// with the servers those hand-offs are part of what the benchmark would
// otherwise measure.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
	rbuf []byte
}

func newClient(base string) *client {
	return &client{addr: strings.TrimPrefix(base, "http://")}
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// post sends body to /v1/run and returns the reply's status and body.  The
// body is valid until the next call.
func (c *client) post(body []byte) (int, []byte, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.conn, c.br = conn, bufio.NewReaderSize(conn, 64<<10)
	}
	c.wbuf = fmt.Appendf(c.wbuf[:0], "POST /v1/run HTTP/1.1\r\nHost: %s\r\n"+
		"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n", c.addr, len(body))
	c.wbuf = append(c.wbuf, body...)
	if _, err := c.conn.Write(c.wbuf); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	if resp.ContentLength >= 0 {
		c.rbuf = slices.Grow(c.rbuf[:0], int(resp.ContentLength))[:resp.ContentLength]
		_, err = io.ReadFull(resp.Body, c.rbuf)
	} else {
		c.rbuf, err = io.ReadAll(resp.Body)
	}
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, c.rbuf, err
}

// run sends one program and checks the reply.
func (c *client) run(p *program, st *loadStats, start time.Time) {
	st.attempted++
	sent := time.Now()
	status, body, err := c.post(p.body)
	done := time.Now()
	var why string
	switch {
	case err != nil:
		why = err.Error()
	case status != http.StatusOK:
		why = fmt.Sprintf("%s: HTTP %d: %.200s", p.name, status, body)
	default:
		why = p.check(body)
	}
	if why != "" {
		st.failed++
		if st.firstErr == "" {
			st.firstErr = why
		}
		return
	}
	st.lat = append(st.lat, done.Sub(sent))
	st.done = append(st.done, done.Sub(start))
}

// drive runs conns closed loops against base.  With dur > 0 the loops send
// programs from the shared cursor until dur has passed; with dur == 0 they
// send each program once (the untimed pass).
func drive(base string, progs []*program, conns int, dur time.Duration) *loadStats {
	var cursor atomic.Int64
	per := make([]*loadStats, conns)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range per {
		per[c] = &loadStats{}
		if dur > 0 {
			per[c].lat = make([]time.Duration, 0, 1<<16)
			per[c].done = make([]time.Duration, 0, 1<<16)
		}
		wg.Add(1)
		go func(st *loadStats) {
			defer wg.Done()
			cl := newClient(base)
			defer cl.close()
			for {
				i := int(cursor.Add(1) - 1)
				if dur == 0 && i >= len(progs) || dur > 0 && !time.Now().Before(deadline) {
					return
				}
				cl.run(progs[i%len(progs)], st, start)
			}
		}(per[c])
	}
	var steal chan []float64
	if dur > 0 {
		steal = make(chan []float64, 1)
		go func() { steal <- sampleSteal(start, int(dur/slice)) }()
	}
	wg.Wait()
	total := &loadStats{elapsed: time.Since(start)}
	if steal != nil {
		total.steal = <-steal
	}
	for _, st := range per {
		total.merge(st)
	}
	return total
}
