package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the benchmark's own load driver: raw latency samples, exact
// percentiles from the sorted slice, and an open loop whose latencies run
// from the instant a request was due, not from when it was sent, so that a
// stall is charged to every request it delayed.

type opClass uint8

const (
	opHead     opClass = iota // one of 64 fixed name pairs: result-cache hit
	opTail                    // next indexed pair of a shuffled cycle: cache miss, S-index hit
	opTypo                    // tail pair with one transposition: similarity miss path
	opPedigree                // uniform entity id
	opIngest                  // next hold-out certificate
	numClasses
)

type op struct {
	class  opClass
	pair   namePair // searches only
	target string
	body   []byte // ingest only
}

// failure identifies how a request failed: its class and the status it got
// (-1 for an empty ranking where one was due).
type failure struct {
	class  opClass
	status int
}

// phaseResult holds what one load phase measured.
type phaseResult struct {
	wall      time.Duration
	lat       [numClasses][]float64 // ms per completed request, by class
	late      []float64             // ms the open-loop generator ran behind schedule
	attempted int
	failures  map[failure]int // requests answered anything but 2xx
}

// add folds another slice of the same phase into p.
func (p *phaseResult) add(q *phaseResult) {
	p.wall += q.wall
	for c := range p.lat {
		p.lat[c] = append(p.lat[c], q.lat[c]...)
	}
	p.late = append(p.late, q.late...)
	p.attempted += q.attempted
	for k, n := range q.failures {
		if p.failures == nil {
			p.failures = make(map[failure]int)
		}
		p.failures[k] += n
	}
}

// failed counts the failures whose status matches (all when match is nil).
func (p *phaseResult) failed(match func(status int) bool) int {
	n := 0
	for k, c := range p.failures {
		if match == nil || match(k.status) {
			n += c
		}
	}
	return n
}

func (p *phaseResult) completed() int {
	n := 0
	for c := range p.lat {
		n += len(p.lat[c])
	}
	return n
}

// recorder collects per-request outcomes from concurrent clients.
type recorder struct {
	mu sync.Mutex
	p  *phaseResult
}

func (r *recorder) record(class opClass, status int, lat time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if status >= 200 && status < 300 {
		r.p.lat[class] = append(r.p.lat[class], ms(lat))
		return
	}
	if r.p.failures == nil {
		r.p.failures = make(map[failure]int)
	}
	r.p.failures[failure{class, status}]++
}

// closedLoop runs `clients` callers, each sending its next request when the
// previous one completes, for d (or until n requests when n > 0).
func closedLoop(clients int, d time.Duration, n int, next func() op, send func(op) int) *phaseResult {
	p := &phaseResult{}
	rec := &recorder{p: p}
	var issued atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := issued.Add(1)
				if (n > 0 && int(i) > n) || (n == 0 && time.Since(start) >= d) {
					return
				}
				o := next()
				t := time.Now()
				rec.record(o.class, send(o), time.Since(t))
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.attempted = p.completed() + p.failed(nil)
	return p
}

// openLoop sends ops[i] at start + i/rate and times it from that instant.
// openWorkers senders share the schedule: each takes the next arrival, sleeps
// until it is due and sends it, so an arrival that finds every sender busy
// waits its turn and is charged the wait. Nothing is dropped and at most
// openWorkers requests are outstanding, which admission control never sheds
// (see openWorkers): a stall of the machine shows as latency, not as failed
// operations.
func openLoop(rate float64, ops []op, send func(op) int) *phaseResult {
	p := &phaseResult{attempted: len(ops), late: make([]float64, len(ops))}
	rec := &recorder{p: p}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < openWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				p.late[i] = ms(time.Since(due))
				rec.record(ops[i].class, send(ops[i]), time.Since(due))
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank q-quantile of xs (0 for no samples).
// It sorts xs in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}
