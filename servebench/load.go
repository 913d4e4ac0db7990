package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxSegments caps the requests one budgeted walk may take before the job
// is counted as failed; walks always end, so this only guards a hang.
const maxSegments = 4096

// reply is the subset of adhocd's reply shapes the benchmark reads.
type reply struct {
	Status  string `json:"status"`
	Resume  string `json:"resume"`
	Error   string `json:"error"`
	Results []struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	} `json:"results"`
	Epoch int `json:"epoch"`
	Links int `json:"links"`
}

// result is the outcome of one job.
type result struct {
	j          *job
	due        time.Time // open loop: when the job was due; zero in a closed loop
	start      time.Time
	done       time.Time
	statuses   []string // one per pair, for verdict-yielding jobs
	reqs       int
	fails      int
	segments   int
	reqTime    time.Duration // summed send-to-reply time of this job's requests
	traced     bool          // the job ran with span recording on
	lo, hi     int           // world reads: epoch window the verdict may rest on
	epoch      int           // advances: the world epoch the reply reports
	links      int           // advances: the world's link count at that epoch
	firstError string
}

// latency is the job's time as a user sees it: from when it was due (open
// loop) or sent (closed loop) until its verdict arrived.
func (r *result) latency() time.Duration {
	if r.due.IsZero() {
		return r.done.Sub(r.start)
	}
	return r.done.Sub(r.due)
}

// runner drives one entry shard with at most conns connections.
type runner struct {
	base   string
	client *http.Client
	conns  int
	tr     *tracer
	phase  int64 // span the current phase's jobs hang under
	// advSent counts advances sent; advDone advances whose reply arrived.
	// A world read sent after advDone=a and answered before advSent=b
	// rests on some epoch in [a, b].
	advSent, advDone atomic.Int64
	bufs             sync.Pool
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

func newRunner(base string, conns int, tr *tracer) *runner {
	return &runner{base: base, client: newClient(conns), conns: conns, tr: tr,
		bufs: sync.Pool{New: func() any { return new(bytes.Buffer) }}}
}

// post sends one request and decodes its reply, recording its timing and
// failure on res. It reports whether a 200 reply was decoded.
func (rn *runner) post(path string, body []byte, rep *reply, res *result, tr *tracer, parent int64) bool {
	res.reqs++
	t0 := time.Now()
	ok, err := rn.roundTrip(path, body, rep)
	d := time.Since(t0)
	tr.record("http."+res.j.kind.String(), parent, parent, t0, d)
	res.reqTime += d
	if !ok {
		res.fails++
		if res.firstError == "" {
			res.firstError = err
		}
	}
	return ok
}

func (rn *runner) roundTrip(path string, body []byte, rep *reply) (bool, string) {
	req, err := http.NewRequest(http.MethodPost, rn.base+path, bytes.NewReader(body))
	if err != nil {
		return false, err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rn.client.Do(req)
	if err != nil {
		return false, err.Error()
	}
	buf := rn.bufs.Get().(*bytes.Buffer)
	defer rn.bufs.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err.Error()
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("%s: HTTP %d %s", path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	if err := json.Unmarshal(buf.Bytes(), rep); err != nil {
		return false, fmt.Sprintf("%s: %v", path, err)
	}
	return true, ""
}

func isVerdict(s string) bool { return s == "success" || s == "failure" }

// exec runs job j to completion, filling res; tr records its spans (nil
// records none).
func (rn *runner) exec(j *job, res *result, tr *tracer) {
	res.j = j
	res.traced = tr != nil
	res.start = time.Now()
	id := tr.begin()
	defer func() {
		res.done = time.Now()
		tr.finish(id, "job."+j.kind.String(), rn.phase, id, res.start)
	}()
	var rep reply
	switch j.kind {
	case bootRoute, netRoute, worldRoute:
		res.lo = int(rn.advDone.Load())
		ok := rn.post(j.path, j.body, &rep, res, tr, id)
		res.hi = int(rn.advSent.Load())
		if ok {
			res.statuses = []string{rep.Status}
			if !isVerdict(rep.Status) {
				res.fail("status " + rep.Status)
			}
		}
	case netBatch:
		if !rn.post(j.path, j.body, &rep, res, tr, id) {
			return
		}
		if len(rep.Results) != len(j.pairs) {
			res.fail(fmt.Sprintf("batch of %d returned %d results", len(j.pairs), len(rep.Results)))
			return
		}
		res.statuses = make([]string, len(j.pairs))
		for i, m := range rep.Results {
			res.statuses[i] = m.Status
			if m.Error != "" || !isVerdict(m.Status) {
				res.fail("batch member: " + m.Status + m.Error)
			}
		}
	case netBudget:
		body := j.body
		for res.segments < maxSegments {
			res.segments++
			rep = reply{}
			if !rn.post(j.path, body, &rep, res, tr, id) {
				return
			}
			if rep.Status != "budget_exhausted" {
				break
			}
			if rep.Resume == "" {
				res.fail("budget_exhausted without a resume token")
				return
			}
			body = j.resumeBody(rep.Resume)
		}
		res.statuses = []string{rep.Status}
		if !isVerdict(rep.Status) {
			res.fail(fmt.Sprintf("no verdict after %d segments", res.segments))
		}
	case worldAdvance:
		rn.advSent.Add(1)
		if rn.post(j.path, j.body, &rep, res, tr, id) {
			rn.advDone.Add(1)
			res.epoch, res.links = rep.Epoch, rep.Links
			if hi := int(rn.advSent.Load()); rep.Epoch < 1 || rep.Epoch > hi {
				res.fail(fmt.Sprintf("advance reply epoch %d outside [1,%d]: another client advanced the world", rep.Epoch, hi))
			}
		}
	}
}

func (r *result) fail(msg string) {
	r.fails++
	if r.firstError == "" {
		r.firstError = msg
	}
}

// closedLoop runs conns workers back to back over jobs until d elapses and
// returns the completed jobs.
func (rn *runner) closedLoop(jobs []*job, d time.Duration) []result {
	var next atomic.Int64
	per := make([][]result, rn.conns)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				var res result
				rn.exec(jobs[int(i)%len(jobs)], &res, rn.tr)
				per[w] = append(per[w], res)
			}
		}()
	}
	wg.Wait()
	var out []result
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out
}

// openLoop sends each of jobs once on a fixed schedule of rate arrivals
// per second, each timed from its due time, through conns workers. lags holds how
// late the generator handed each job over; a job waiting for a free
// connection is the system's backlog and counts in its latency, not here.
// With alternate, every other cycle of the workload's request pattern
// (cycle jobs long) runs untraced, so a traced run measures its own
// tracing overhead under one load and one request mix.
func (rn *runner) openLoop(jobs []*job, rate float64, alternate bool, cycle int) (res []result, lags []time.Duration) {
	n := len(jobs)
	res = make([]result, n)
	lags = make([]time.Duration, n)
	queue := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < rn.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				tr := rn.tr
				if alternate && (i/cycle)%2 == 1 {
					tr = nil
				}
				rn.exec(jobs[i], &res[i], tr)
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(2 * time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		lags[i] = time.Since(due)
		res[i].due = due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res, lags
}

// sleepUntil blocks until t with a nanosleep(2) syscall: the Go timer
// wakes a sub-millisecond sleep up to a millisecond late on Linux, which
// would be generator lag, not latency of the system under test.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != syscall.EINTR {
			return
		}
	}
}
