// Package admission implements server-side load protection for the SNAPS
// serving tier: per-class weighted concurrency limits and ingest
// backpressure, combined into one admission decision per request.
//
// Requests are grouped into classes (search, pedigree render, ingest;
// /metrics and /healthz are exempt) and every class pays a weighted share
// of one global in-flight budget. The degradation ladder falls out of the
// per-class admission ceilings: pedigree renders may only use up to half
// the budget, ingest three quarters, searches all of it — so under a
// saturating burst pedigree requests are shed first, then ingest, then
// searches, while /metrics and /healthz always answer. Every decision is
// counted in the obs registry so the load harness (internal/load) can
// verify the ladder it induces.
//
// Admission never queues: a request over its ceiling is rejected
// immediately with a Retry-After hint rather than parked, because under
// open-loop traffic (real users, the load harness) queued requests only
// convert overload into latency collapse and memory growth.
package admission

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/snaps/snaps/internal/obs"
)

// Class buckets routes by cost and priority. The zero value is Exempt:
// never shed, never counted against the in-flight budget.
type Class uint8

const (
	// Exempt requests (metrics, health, status, debug) are always admitted.
	Exempt Class = iota
	// Search is the cheap hot path: keyword search and explain.
	Search
	// Ingest is certificate submission; it also answers for journal
	// backlog backpressure.
	Ingest
	// Pedigree is the expensive graph-walk render path, first on the
	// degradation ladder.
	Pedigree

	// NumClasses sizes per-class tables.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case Exempt:
		return "exempt"
	case Search:
		return "search"
	case Ingest:
		return "ingest"
	case Pedigree:
		return "pedigree"
	}
	return "class?"
}

// classLimits are the fixed per-class knobs of the degradation ladder,
// indexed by Class. weight is the in-flight budget units one request of the
// class occupies while being served (pedigree renders cost more than
// searches). fraction is the class's admission ceiling as a fraction of the
// total budget: a request is admitted only while the weighted in-flight
// total (plus its own weight) stays at or under fraction*MaxConcurrency.
// Lower fractions shed earlier — this ordering is the ladder. Exempt has
// neither and is never counted.
var classLimits = [NumClasses]struct {
	weight   int64
	fraction float64
}{
	Search:   {1, 1.0},
	Ingest:   {2, 0.75},
	Pedigree: {4, 0.5},
}

// concurrencyRetryAfter is the Retry-After hint for concurrency sheds.
const concurrencyRetryAfter = time.Second

// Config tunes the admission controller.
type Config struct {
	// MaxConcurrency is the global weighted in-flight budget. <= 0
	// disables concurrency limiting (backpressure still applies).
	MaxConcurrency int
	// BacklogRetryAfter is the Retry-After hint for ingest backlog sheds;
	// callers set it to the ingest flush horizon (Config.MaxAge) so the
	// hint matches when capacity actually frees up.
	BacklogRetryAfter time.Duration
	// MaxBacklogRecords and MaxBacklogBytes bound the unflushed ingest
	// backlog: once Backlog() reports either at or above its bound, new
	// ingest requests are shed until a flush drains it. 0 disables the
	// respective bound.
	MaxBacklogRecords int
	MaxBacklogBytes   int64
	// Backlog reports the current unflushed ingest backlog (records,
	// bytes); nil disables backpressure. Wired to
	// ingest.Pipeline.Backlog.
	Backlog func() (records int, bytes int64)
	// MaxShardBacklogRecords and MaxShardBacklogBytes bound the hottest
	// single shard's unflushed backlog in a sharded serving tier, so one
	// hot partition sheds ingest before it can hide behind the global
	// average. 0 disables the respective bound.
	MaxShardBacklogRecords int
	MaxShardBacklogBytes   int64
	// ShardBacklog reports the hottest shard's backlog; nil disables
	// per-shard backpressure. Wired to
	// ingest.Pipeline.HottestShardBacklog.
	ShardBacklog func() (shard, records int, bytes int64)
}

// PerShardBound derives Config.MaxShardBacklog{Records,Bytes} from the
// global bound: twice the fair share, so routing skew has headroom but one
// hot shard still sheds long before the global backlog average would notice
// it; capped at the global bound and floored at 1, so a configured bound
// never degenerates to unbounded. It equals the global bound at one shard and
// at two (2·g/2 = g), so a hot shard can shed ahead of the global bound only
// at three shards or more. A global bound of 0 or less (unbounded) is
// returned as is.
func PerShardBound[T int | int64](global, shards T) T {
	if global <= 0 || shards <= 1 {
		return global
	}
	return max(1, min(global, 2*global/shards))
}

// DefaultConfig returns the production defaults: a 64-unit budget with the
// pedigree-before-ingest-before-search degradation ladder and a 4096-record
// / 8 MiB ingest backlog bound.
func DefaultConfig() Config {
	return Config{
		MaxConcurrency:    64,
		BacklogRetryAfter: 2 * time.Second,
		MaxBacklogRecords: 4096,
		MaxBacklogBytes:   8 << 20,
	}
}

// Decision is the outcome of one admission check.
type Decision struct {
	Admitted bool
	// Reason a request was shed: "concurrency", "backlog", or
	// "shard_backlog".
	Reason string
	// RetryAfter is the suggested client back-off; the HTTP layer rounds
	// it up to whole seconds for the Retry-After header.
	RetryAfter time.Duration
}

// Controller makes admission decisions. One controller fronts one server;
// all methods are safe for concurrent use.
type Controller struct {
	cfg      Config
	ceil     [NumClasses]int64 // weighted ceiling per class; 0 = unlimited
	inflight atomic.Int64      // weighted units currently being served
	// admitted and shed are the decision counters, bound once in New so a
	// decision renders no series name and takes no registry lock; shed is
	// indexed by the reasons below.
	admitted [NumClasses]*obs.Counter
	shed     [NumClasses][numReasons]*obs.Counter
}

// The reasons a request is shed, indexes into Controller.shed.
const (
	reasonConcurrency = iota
	reasonBacklog
	reasonShardBacklog
	numReasons
)

var reasonNames = [numReasons]string{"concurrency", "backlog", "shard_backlog"}

// Admission metrics in the default registry, exposed at GET /metrics.
var (
	mInflight = obs.Default.Gauge("snaps_admission_inflight",
		"Weighted in-flight units currently admitted across all classes.")
)

// shedDecision counts one rejection and returns its Decision.
func (c *Controller) shedDecision(cl Class, reason int, retryAfter time.Duration) Decision {
	c.shed[cl][reason].Inc()
	return Decision{Reason: reasonNames[reason], RetryAfter: retryAfter}
}

// New returns a controller for the config.
func New(cfg Config) *Controller {
	c := &Controller{cfg: cfg}
	if c.cfg.BacklogRetryAfter <= 0 {
		c.cfg.BacklogRetryAfter = 2 * time.Second
	}
	for cl := Search; cl < NumClasses && cfg.MaxConcurrency > 0; cl++ {
		lim := classLimits[cl]
		// A ceiling admits at least one request of its class: a small
		// budget never configures a class out entirely.
		c.ceil[cl] = max(lim.weight, int64(lim.fraction*float64(cfg.MaxConcurrency)))
	}
	// Every class a decision can count, and only the reasons it can be shed
	// for: the backlog bounds apply to ingest alone.
	for cl := Search; cl < NumClasses; cl++ {
		class := obs.Label("class", cl.String())
		c.admitted[cl] = obs.Default.Counter("snaps_admission_admitted_total{"+class+"}",
			"Requests admitted, by class.")
		for reason, name := range reasonNames {
			if cl == Ingest || reason == reasonConcurrency {
				c.shed[cl][reason] = obs.Default.Counter(
					"snaps_admission_shed_total{"+class+","+obs.Label("reason", name)+"}",
					"Requests shed (429), by class and reason.")
			}
		}
	}
	return c
}

var noRelease = func() {}

// Admit decides one request. The returned release function MUST be called
// exactly once when the request finishes (it is a no-op for shed and
// exempt requests, so callers can defer it unconditionally).
//
// Checks run cheapest-and-most-actionable first: ingest backlog (the
// memory-protection signal, with a flush-horizon Retry-After), then the
// weighted concurrency ceiling.
func (c *Controller) Admit(cl Class) (release func(), d Decision) {
	if cl == Exempt || cl >= NumClasses {
		return noRelease, Decision{Admitted: true}
	}
	if cl == Ingest && c.cfg.Backlog != nil {
		if over, _, _ := c.BacklogExceeded(); over {
			return noRelease, c.shedDecision(cl, reasonBacklog, c.cfg.BacklogRetryAfter)
		}
	}
	if cl == Ingest && c.cfg.ShardBacklog != nil {
		if over, _, _, _ := c.ShardBacklogExceeded(); over {
			return noRelease, c.shedDecision(cl, reasonShardBacklog, c.cfg.BacklogRetryAfter)
		}
	}
	w := classLimits[cl].weight
	if ceil := c.ceil[cl]; ceil > 0 {
		for {
			cur := c.inflight.Load()
			if cur+w > ceil {
				return noRelease, c.shedDecision(cl, reasonConcurrency, concurrencyRetryAfter)
			}
			if c.inflight.CompareAndSwap(cur, cur+w) {
				break
			}
		}
		mInflight.Set(c.inflight.Load())
		c.admitted[cl].Inc()
		var once sync.Once
		return func() {
			once.Do(func() {
				mInflight.Set(c.inflight.Add(-w))
			})
		}, Decision{Admitted: true}
	}
	c.admitted[cl].Inc()
	return noRelease, Decision{Admitted: true}
}

// Inflight returns the weighted in-flight total.
func (c *Controller) Inflight() int64 { return c.inflight.Load() }

// Shedding reports whether a new request of the class would currently be
// shed by the concurrency ceiling. Always false for Exempt and for
// unlimited classes.
func (c *Controller) Shedding(cl Class) bool {
	if cl == Exempt || cl >= NumClasses {
		return false
	}
	ceil := c.ceil[cl]
	if ceil <= 0 {
		return false
	}
	return c.inflight.Load()+classLimits[cl].weight > ceil
}

// BacklogExceeded reports whether the ingest backlog is over either bound,
// along with the observed backlog.
func (c *Controller) BacklogExceeded() (over bool, records int, bytes int64) {
	if c.cfg.Backlog == nil {
		return false, 0, 0
	}
	records, bytes = c.cfg.Backlog()
	if c.cfg.MaxBacklogRecords > 0 && records >= c.cfg.MaxBacklogRecords {
		over = true
	}
	if c.cfg.MaxBacklogBytes > 0 && bytes >= c.cfg.MaxBacklogBytes {
		over = true
	}
	return over, records, bytes
}

// ShardBacklogExceeded reports whether the hottest shard's backlog is over
// either per-shard bound, along with the shard and its observed backlog.
func (c *Controller) ShardBacklogExceeded() (over bool, shard, records int, bytes int64) {
	if c.cfg.ShardBacklog == nil {
		return false, 0, 0, 0
	}
	shard, records, bytes = c.cfg.ShardBacklog()
	if c.cfg.MaxShardBacklogRecords > 0 && records >= c.cfg.MaxShardBacklogRecords {
		over = true
	}
	if c.cfg.MaxShardBacklogBytes > 0 && bytes >= c.cfg.MaxShardBacklogBytes {
		over = true
	}
	return over, shard, records, bytes
}

// Overloaded reports whether the server is currently degrading: any class
// is being shed by its concurrency ceiling, or the ingest backlog (global
// or any single shard's) is over a bound. GET /healthz returns 503 while
// this holds, so a fronting load balancer (and the load harness) can
// detect overload and recovery.
func (c *Controller) Overloaded() bool {
	for cl := Search; cl < NumClasses; cl++ {
		if c.Shedding(cl) {
			return true
		}
	}
	if over, _, _ := c.BacklogExceeded(); over {
		return true
	}
	over, _, _, _ := c.ShardBacklogExceeded()
	return over
}
