package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snaps/snaps/internal/ingest"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
)

type namePair struct{ first, sur string }

// Arrival mixes as weights of head, tail, typo and pedigree requests. In the
// ingest phase every ingestEvery-th arrival is a certificate (8%) and the
// rest follow ingestMix, which has no head class: its reads all miss the
// result cache, so search_p50_ms beside writes is comparable with the read
// phase's.
var (
	readMix   = [4]int{25, 45, 15, 15}
	ingestMix = [4]int{0, 62, 15, 15}
)

var className = [numClasses]string{"head", "tail", "typo", "pedigree", "ingest"}

// opGen turns the seed into requests. The program under test sees only the
// requests; the pools are mined from the pedigree graph the stack serves.
type opGen struct {
	mu       sync.Mutex
	rng      *rand.Rand
	all      []namePair // every indexed pair: head, then tail
	head     []namePair
	tail     []namePair // every other indexed pair, in one seeded shuffled order
	known    map[namePair]bool
	tailCur  int
	typoCur  int
	entities int
	bodies   [][]byte // hold-out certificates as JSON
	certCur  int
}

func newOpGen(g *pedigree.Graph, certs []ingest.Certificate, seed int64) (*opGen, error) {
	count := make(map[namePair]int)
	for i := range g.Nodes {
		if n := &g.Nodes[i]; len(n.FirstNames) > 0 && len(n.Surnames) > 0 {
			count[namePair{n.FirstNames[0], n.Surnames[0]}]++
		}
	}
	pairs := make([]namePair, 0, len(count))
	known := make(map[namePair]bool, len(count))
	for p := range count {
		pairs = append(pairs, p)
		known[p] = true
	}
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if count[a] != count[b] {
			return count[a] > count[b]
		}
		if a.first != b.first {
			return a.first < b.first
		}
		return a.sur < b.sur
	})
	nHead := headPairs
	if nHead > len(pairs)/2 {
		nHead = len(pairs) / 2
	}
	gen := &opGen{rng: rand.New(rand.NewSource(seed)), all: pairs, head: pairs[:nHead], tail: pairs[nHead:],
		known: known, entities: len(g.Nodes)}
	gen.rng.Shuffle(len(gen.tail), func(i, j int) { gen.tail[i], gen.tail[j] = gen.tail[j], gen.tail[i] })
	// Typos walk the same cycle half a pool away from the tail cursor.
	gen.typoCur = len(gen.tail) / 2
	for i := range certs {
		b, err := json.Marshal(&certs[i])
		if err != nil {
			return nil, err
		}
		gen.bodies = append(gen.bodies, b)
	}
	return gen, nil
}

// next draws one read request from the mix.
func (g *opGen) next(mix [4]int) op {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.rng.Intn(mix[0] + mix[1] + mix[2] + mix[3])
	switch {
	case r < mix[0]:
		p := g.head[g.rng.Intn(len(g.head))]
		return op{class: opHead, pair: p, target: searchURL(p.first, p.sur)}
	case r < mix[0]+mix[1]:
		return g.nextTail()
	case r < mix[0]+mix[1]+mix[2]:
		p := g.tail[g.typoCur%len(g.tail)]
		lap := g.typoCur / len(g.tail)
		// Alternate the field; a later lap moves the transposition, so a
		// value the similarity index has memoised is not sent again.
		if g.typoCur%2 == 0 {
			p.sur = transpose(p.sur, lap)
		} else {
			p.first = transpose(p.first, lap)
		}
		g.typoCur++
		return op{class: opTypo, pair: p, target: searchURL(p.first, p.sur)}
	default:
		return op{class: opPedigree, target: "/api/pedigree?id=" + strconv.Itoa(g.rng.Intn(g.entities))}
	}
}

// nextTail must be called with g.mu held or from a single goroutine.
func (g *opGen) nextTail() op {
	p := g.tail[g.tailCur%len(g.tail)]
	g.tailCur++
	return op{class: opTail, pair: p, target: searchURL(p.first, p.sur)}
}

// indexed returns the i-th indexed pair as a search.
func (g *opGen) indexed(i int) op {
	p := g.all[i]
	return op{class: opTail, pair: p, target: searchURL(p.first, p.sur)}
}

func (g *opGen) ingest() op {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.bodies[g.certCur%len(g.bodies)]
	g.certCur++
	return op{class: opIngest, target: "/api/ingest", body: b}
}

// transpose swaps the first differing adjacent letters at or after position
// at (mod the length).
func transpose(s string, at int) string {
	b := []byte(s)
	for k := 0; k+1 < len(b); k++ {
		i := (at + k) % (len(b) - 1)
		if b[i] != b[i+1] {
			b[i], b[i+1] = b[i+1], b[i]
			return string(b)
		}
	}
	return s + "x"
}

// visibility measures POST ack → searchable: a certificate is visible at the
// first snapshot swap whose Status().Applied covers the Accepted count its
// acknowledgement carried.
type visibility struct {
	mu      sync.Mutex
	pending []ack
	acked   int
	lat     []float64 // s
	flushS  []float64 // Status().LastFlushMillis at each swap, s
}

type ack struct {
	seq int
	at  time.Time
}

func (v *visibility) ack(seq int) {
	v.mu.Lock()
	v.pending = append(v.pending, ack{seq, time.Now()})
	v.acked++
	v.mu.Unlock()
}

func (v *visibility) swapped(st ingest.Status) {
	now := time.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	v.flushS = append(v.flushS, float64(st.LastFlushMillis)/1000)
	keep := v.pending[:0]
	for _, a := range v.pending {
		if a.seq <= st.Applied {
			v.lat = append(v.lat, now.Sub(a.at).Seconds())
		} else {
			keep = append(keep, a)
		}
	}
	v.pending = keep
}

// done returns the acknowledgements counted and those still invisible.
func (v *visibility) done() (acked, pending int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.acked, len(v.pending)
}

// loadState is what the load phases share.
type loadState struct {
	gen   *opGen
	vis   visibility
	phase int // span of the running phase, parent of its request spans
}

// send issues one request and checks its answer; it returns the HTTP status,
// or -1 for a 200 whose ranking is empty although the name is indexed.
func (s *stack) send(ls *loadState, o op) int {
	method := http.MethodGet
	if o.class == opIngest {
		method = http.MethodPost
	}
	sp := s.tr.begin(className[o.class], ls.phase)
	status, body := s.do(method, o.target, o.body)
	s.tr.end(sp)
	switch {
	case o.class == opIngest && status == http.StatusAccepted:
		var st ingest.Status
		if err := json.Unmarshal(body, &st); err != nil {
			return -1
		}
		ls.vis.ack(st.Accepted)
	case (o.class == opHead || o.class == opTail) && status == http.StatusOK:
		if !bytes.Contains(body, []byte(`"entity"`)) {
			return -1
		}
	}
	return status
}

// serve drives the load phases against the live stack and fills in the
// serving metrics. The closed-loop and read phases run as loadCycles
// interleaved slices, so that each samples the machine at several moments:
// the sandbox's speed drifts by a fifth over seconds, and one contiguous
// window would see a single state of it.
func (s *stack) serve() (attempted, failed int, err error) {
	w, m := s.cfg.w, s.m
	ls := &loadState{}
	if ls.gen, err = newOpGen(s.pipe.Serving().Graph, s.certs, s.cfg.seed); err != nil {
		return 0, 0, err
	}
	fmt.Fprintf(os.Stderr, "load: %d head pairs, %d tail pairs (result cache %d), %d entities, %d hold-out certificates\n",
		len(ls.gen.head), len(ls.gen.tail), cacheEntries/shards, ls.gen.entities, len(s.certs))
	s.pipe.OnSwap(func(*ingest.Serving) { ls.vis.swapped(s.pipe.Status()) })
	send := func(o op) int { return s.send(ls, o) }
	readNext := func() op { return ls.gen.next(readMix) }
	slice := func(share float64) time.Duration {
		return time.Duration(share * s.cfg.seconds / loadCycles * float64(time.Second))
	}
	phase := func(into *phaseResult, name string, run func() *phaseResult) {
		ls.phase = s.tr.begin(name, -1)
		into.add(run())
		s.tr.end(ls.phase)
	}
	cacheHits, cacheMisses := counter("snaps_query_cache_hits_total"), counter("snaps_query_cache_misses_total")
	var cache struct{ hits, misses int64 }

	var warm, closed, read, ing phaseResult
	var sliceRPS []float64
	// Warm-up: every indexed pair once, because a shard computes and keeps
	// the similarity list of a value on its first query (the first pass over
	// the pool runs at half the speed of the second), then the read mix.
	var passed atomic.Int64
	phase(&warm, "warmup", func() *phaseResult {
		return closedLoop(closedClients, 0, len(ls.gen.all), func() op { return ls.gen.indexed(int(passed.Add(1)) - 1) }, send)
	})
	phase(&warm, "warmup", func() *phaseResult { return closedLoop(closedClients, 0, warmupOps, readNext, send) })
	// The warm-up sends a fixed list of requests, so what is live after it
	// depends on the seed alone. From here on the number of requests served,
	// and with it the size of every cache they fill, follows the machine's
	// speed; rt.heap_end_mb has the heap after that.
	m["heap_live_mb"] = heapLive()
	for c := 0; c < loadCycles; c++ {
		h0, m0 := cacheHits.Value(), cacheMisses.Value()
		phase(&closed, "closed_loop", func() *phaseResult {
			p := closedLoop(closedClients, slice(w.closed), 0, readNext, send)
			sliceRPS = append(sliceRPS, float64(p.completed())/p.wall.Seconds())
			return p
		})
		cache.hits, cache.misses = cache.hits+cacheHits.Value()-h0, cache.misses+cacheMisses.Value()-m0
		if w.read > 0 {
			ops := make([]op, int(readRate*slice(w.read).Seconds()))
			for i := range ops {
				ops[i] = readNext()
			}
			phase(&read, "open_read", func() *phaseResult { return openLoop(readRate, ops, send) })
		}
	}

	// The ingest phase comes last and in one piece: every flush swaps the
	// snapshot and empties the touched shards' result caches, which the
	// capacity slices above must not see. Whole batches only: every
	// certificate then waits for a size-triggered flush, and the waiting
	// pattern is the same in every run.
	perBatch := ingestEvery * ingestBatch
	batches := int(ingestRate*w.ingest*s.cfg.seconds) / perBatch
	if batches < 1 {
		batches = 1
	}
	incr, full := counter("snaps_index_incremental_total"), counter("snaps_index_full_rebuild_total")
	i0, f0 := incr.Value(), full.Value()
	ops := make([]op, batches*perBatch)
	for i := range ops {
		if i%ingestEvery == 0 {
			ops[i] = ls.gen.ingest()
		} else {
			ops[i] = ls.gen.next(ingestMix)
		}
	}
	phase(&ing, "open_ingest", func() *phaseResult { return openLoop(ingestRate, ops, send) })
	fsp := s.tr.begin("Pipeline.Flush", -1)
	err = s.pipe.Flush()
	s.tr.end(fsp)
	if err != nil {
		return 0, 0, err
	}
	st := s.pipe.Status()
	main := &read
	if w.read == 0 {
		main = &ing
	}

	// The best slice, as the batch timings are the fastest round: whatever
	// else the shared machine is doing only ever takes throughput away. Over
	// two sets of ten runs, one of them taken while the machine was a quarter
	// slower, the best of the 8 slices moved 6 points less than their median.
	m["capacity_rps"] = slices.Max(sliceRPS)
	fmt.Fprintf(os.Stderr, "closed-loop slices: %.0f ops/s\n", sliceRPS)
	m["query.cache_hit_ratio"] = ratio(cache.hits, cache.misses)
	m["query.head_p50_ms"] = percentile(closed.lat[opHead], 0.50)
	m["search_p50_ms"] = percentile(main.lat[opTail], 0.50)
	m["search_typo_p50_ms"] = percentile(main.lat[opTypo], 0.50)
	m["pedigree_p50_ms"] = percentile(main.lat[opPedigree], 0.50)
	m["server.search_p99_ms"] = percentile(main.lat[opTail], 0.99)
	m["server.typo_p99_ms"] = percentile(main.lat[opTypo], 0.99)
	m["server.pedigree_p99_ms"] = percentile(main.lat[opPedigree], 0.99)
	m["ingest_visible_p50_s"] = percentile(ls.vis.lat, 0.50)
	m["ingest.submit_p50_ms"] = percentile(ing.lat[opIngest], 0.50)
	m["ingest.flush_p50_s"] = percentile(ls.vis.flushS, 0.50)
	m["ingest.flushes"] = float64(st.Flushes)
	m["ingest.batch_mean"] = float64(st.Applied) / float64(st.Flushes)
	m["index.incremental_ratio"] = ratio(incr.Value()-i0, full.Value()-f0)
	late := append(read.late, ing.late...)
	m["gen.late_p50_ms"] = percentile(late, 0.50)
	m["gen.late_p99_ms"] = percentile(late, 0.99)

	var all phaseResult
	for _, p := range []*phaseResult{&warm, &closed, &read, &ing} {
		all.add(p)
	}
	failed = all.failed(nil)
	m["admission.shed_ratio"] = float64(all.failed(func(status int) bool { return status == http.StatusTooManyRequests })) / float64(all.attempted)

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "load: %d failed, {class status}:count %v (status -1 is an empty ranking)\n", failed, all.failures)
	}
	if n := all.failed(func(status int) bool { return status >= 500 }); n > 0 {
		s.fail("%d requests answered 5xx", n)
	}
	if acked, pending := ls.vis.done(); st.Applied != acked || pending > 0 {
		s.fail("after Flush: applied %d, acknowledged %d, %d never became visible", st.Applied, acked, pending)
	}
	s.checkPrincipals(ls.gen)

	if s.cfg.trace {
		s.directCalls(ls)
		if _, _, _, err := s.flushWalk(s.nextBatch(ls.gen)); err != nil {
			return 0, 0, err
		}
	}
	m["rt.heap_end_mb"] = heapLive()
	return all.attempted, failed, nil
}

// nextBatch returns the next hold-out certificates the load has not submitted.
func (s *stack) nextBatch(gen *opGen) []ingest.Certificate {
	from := min(gen.certCur, len(s.certs)-ingestBatch)
	return s.certs[from : from+ingestBatch]
}

// checkPrincipals searches up to 50 ingested principals by exact name and
// requires the answer to hold an entity with an ingested record of that
// name. Names the base corpus already knows are skipped: their rankings may
// be full of older entities.
func (s *stack) checkPrincipals(gen *opGen) {
	g := s.pipe.Serving().Graph
	checked := 0
	for i := 0; i < gen.certCur && i < len(s.certs) && checked < 50; i++ {
		var p ingest.Person
		for _, role := range []model.Role{model.Bb, model.Dd, model.Mm} {
			if q, ok := s.certs[i].Roles[role.String()]; ok {
				p = q
				break
			}
		}
		first, sur := strings.ToLower(strings.TrimSpace(p.FirstName)), strings.ToLower(strings.TrimSpace(p.Surname))
		if first == "" || sur == "" || gen.known[namePair{first, sur}] {
			continue
		}
		checked++
		status, results := s.search(first, sur)
		found := false
		for _, r := range results {
			for _, id := range g.Node(pedigree.NodeID(r.Entity)).Records {
				rec := g.Dataset.Record(id)
				if int(id) >= s.baseRecords && rec.FirstName() == first && rec.Surname() == sur {
					found = true
				}
			}
		}
		if !found {
			s.fail("ingested principal %q %q is not returned by an exact-name search (status %d)", first, sur, status)
		}
	}
}

// heapLive is HeapAlloc after a forced collection, in MB.
func heapLive() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
