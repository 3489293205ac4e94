package load

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/snaps/snaps/internal/obs"
)

// This file is the replay half of the flight recorder: it turns a recorded
// query log (obs.FlightRecord) back into load ops and re-issues them, either
// paced to the recorded arrival offsets (open-loop, optionally time-scaled)
// or closed-loop at fixed concurrency — the comparison mode. Recorded real
// traffic beats the synthetic mixes for finding skew: the synthetic
// generator draws names independently per op, while a real log carries the
// bursts, repeats, and hot keys production actually produced.

// replayableRoutes maps a recorded mux route to the op that re-issues it.
// Routes outside the map (HTML views, explain) are skipped and counted.
var replayableRoutes = map[string]OpKind{
	"/api/search":   OpSearchHot, // kind only picks the request shape; the label is the route
	"/api/pedigree": OpPedigree,
	"/api/ingest":   OpIngest,
}

// OpsFromFlightLog converts a flight log into replayable ops, preserving
// recorded arrival offsets and route labels. The second return value is the
// number of records skipped because their route has no replayable request
// shape.
func OpsFromFlightLog(recs []obs.FlightRecord) (ops []Op, skipped int) {
	for _, r := range recs {
		kind, ok := replayableRoutes[r.Route]
		if !ok {
			skipped++
			continue
		}
		op := Op{Kind: kind, Route: r.Route, DueUs: r.OffsetUs}
		switch kind {
		case OpPedigree:
			op.Entity, _ = strconv.Atoi(r.Entity)
		case OpIngest:
			op.Body = []byte(r.Body)
		default:
			op.First, op.Surname = r.First, r.Surname
		}
		ops = append(ops, op)
	}
	return ops, skipped
}

// ReplayConfig tunes one Replay.
type ReplayConfig struct {
	// Speed scales the recorded pacing: 1 replays in real time, 2 at twice
	// the recorded rate, 0 means 1. Ignored in closed-loop mode.
	Speed float64
	// ClosedLoop switches from recorded pacing to fixed-concurrency
	// replay: Concurrency workers each fire their next op as soon as the
	// previous one completes. This measures the server's capacity on the
	// recorded op sequence rather than reproducing the recorded schedule.
	ClosedLoop bool
	// Concurrency is the closed-loop worker count; 0 means 8.
	Concurrency int
	// MaxOutstanding caps in-flight requests in paced mode (as in Run); 0
	// means 4096.
	MaxOutstanding int
}

// ReplayReport is the result of one Replay.
type ReplayReport struct {
	Records     int                    `json:"records"`  // records read from the log
	Skipped     int                    `json:"skipped"`  // non-replayable routes
	Replayed    int64                  `json:"replayed"` // ops actually issued
	Dropped     int64                  `json:"dropped"`  // paced mode: outstanding window full
	ClosedLoop  bool                   `json:"closed_loop"`
	Speed       float64                `json:"speed,omitempty"`
	DurationSec float64                `json:"duration_sec"`
	Routes      map[string]RouteReport `json:"routes"`
}

// Replay re-issues the ops against the target. Stats are keyed by the
// recorded route pattern, so a replay's per-route counts are directly
// comparable with the log they came from.
func Replay(target Target, ops []Op, cfg ReplayConfig) (*ReplayReport, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("load: nothing to replay")
	}
	stats := map[string]*RouteStats{}
	for i := range ops {
		if r := ops[i].routeLabel(); stats[r] == nil {
			stats[r] = newRouteStats()
		}
	}
	rep := &ReplayReport{ClosedLoop: cfg.ClosedLoop, Routes: map[string]RouteReport{}}

	start := time.Now()
	if cfg.ClosedLoop {
		workers := cfg.Concurrency
		if workers <= 0 {
			workers = 8
		}
		if workers > len(ops) {
			workers = len(ops)
		}
		var next int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if int(i) >= len(ops) {
						return
					}
					replayOne(target, &ops[i], stats)
				}
			}()
		}
		wg.Wait()
	} else {
		rep.Speed = cfg.Speed
		if rep.Speed <= 0 {
			rep.Speed = 1
		}
		rep.Dropped = pace(target, ops, rep.Speed, cfg.MaxOutstanding, stats)
	}
	rep.DurationSec = time.Since(start).Seconds()

	for route, st := range stats {
		if st.Count == 0 {
			continue
		}
		rep.Replayed += st.Count
		rep.Routes[route] = st.report()
	}
	return rep, nil
}

func replayOne(target Target, op *Op, stats map[string]*RouteStats) {
	st := stats[op.routeLabel()]
	t0 := time.Now()
	status, err := target.Do(*op)
	st.record(status, err, time.Since(t0))
}

// RouteComparison sets one route's recorded outcomes against its replayed
// ones.
type RouteComparison struct {
	Recorded RouteReport `json:"recorded"`
	Replayed RouteReport `json:"replayed"`
	// Deltas are replayed minus recorded, in ms: positive means the replay
	// ran slower than the recorded traffic did live.
	P50DeltaMs float64 `json:"p50_delta_ms"`
	P99DeltaMs float64 `json:"p99_delta_ms"`
}

// ReplayComparison diffs a replay against the log it came from, per route.
type ReplayComparison struct {
	Records int                        `json:"records"`
	Skipped int                        `json:"skipped"`
	Routes  map[string]RouteComparison `json:"routes"`
}

// CompareToLog summarises the recorded outcomes per route and diffs the
// replay's distributions against them.
func CompareToLog(recs []obs.FlightRecord, rep *ReplayReport) *ReplayComparison {
	recorded := map[string]*RouteStats{}
	for _, r := range recs {
		st := recorded[r.Route]
		if st == nil {
			st = newRouteStats()
			recorded[r.Route] = st
		}
		var err error
		st.record(r.Status, err, time.Duration(r.LatencyUs)*time.Microsecond)
	}
	cmp := &ReplayComparison{
		Records: len(recs),
		Skipped: rep.Skipped,
		Routes:  map[string]RouteComparison{},
	}
	for route, st := range recorded {
		rc := RouteComparison{Recorded: st.report()}
		if rr, ok := rep.Routes[route]; ok {
			rc.Replayed = rr
			rc.P50DeltaMs = rr.P50Ms - rc.Recorded.P50Ms
			rc.P99DeltaMs = rr.P99Ms - rc.Recorded.P99Ms
		}
		cmp.Routes[route] = rc
	}
	return cmp
}

// RouteNames returns the comparison's routes in stable order for printing.
func (c *ReplayComparison) RouteNames() []string { return sortedKeys(c.Routes) }
