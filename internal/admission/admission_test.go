package admission

import (
	"sync"
	"testing"
	"time"
)

// admitN admits n requests of the class, failing the test on any shed, and
// returns the releases.
func admitN(t *testing.T, c *Controller, cl Class, n int) []func() {
	t.Helper()
	rels := make([]func(), 0, n)
	for i := 0; i < n; i++ {
		rel, d := c.Admit(cl)
		if !d.Admitted {
			t.Fatalf("request %d of class %v shed (%s), want admitted", i, cl, d.Reason)
		}
		rels = append(rels, rel)
	}
	return rels
}

func TestExemptAlwaysAdmitted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrency = 1
	c := New(cfg)
	// Saturate with a search, then verify exempt still passes.
	admitN(t, c, Search, 1)
	for i := 0; i < 100; i++ {
		if _, d := c.Admit(Exempt); !d.Admitted {
			t.Fatalf("exempt request shed: %+v", d)
		}
	}
}

// TestDegradationLadder drives the weighted budget through the three
// regimes of the ladder: pedigree sheds first (above half the budget),
// then ingest (above three quarters), then search (full budget), and
// recovery reverses the order as releases drain.
func TestDegradationLadder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrency = 16 // ceilings: pedigree 8, ingest 12, search 16
	c := New(cfg)

	// Fill to 8 units with searches: pedigree (weight 4) no longer fits
	// under its ceiling of 8, but ingest and search still do.
	rels := admitN(t, c, Search, 8)
	if _, d := c.Admit(Pedigree); d.Admitted {
		t.Fatal("pedigree admitted above its ceiling")
	} else if d.Reason != "concurrency" {
		t.Fatalf("pedigree shed reason = %q, want concurrency", d.Reason)
	}
	if !c.Shedding(Pedigree) || c.Shedding(Search) || c.Shedding(Ingest) {
		t.Fatalf("shed state at 8 units: pedigree=%v search=%v ingest=%v",
			c.Shedding(Pedigree), c.Shedding(Search), c.Shedding(Ingest))
	}
	ingRel, d := c.Admit(Ingest) // 8+2 <= 12: still admitted
	if !d.Admitted {
		t.Fatalf("ingest shed at 10 units: %+v", d)
	}

	// Fill to 12: ingest now sheds too, search still admitted.
	rels = append(rels, admitN(t, c, Search, 2)...)
	if _, d := c.Admit(Ingest); d.Admitted {
		t.Fatal("ingest admitted above its ceiling")
	}
	rels = append(rels, admitN(t, c, Search, 4)...)

	// Full budget: search sheds last.
	if _, d := c.Admit(Search); d.Admitted {
		t.Fatal("search admitted above the full budget")
	} else if d.RetryAfter <= 0 {
		t.Fatalf("concurrency shed carries no Retry-After: %+v", d)
	}
	if got := c.Inflight(); got != 16 {
		t.Fatalf("inflight = %d, want 16", got)
	}
	if !c.Overloaded() {
		t.Fatal("controller not overloaded at full budget")
	}

	// Recovery: drain searches; pedigree is admitted again once the
	// weighted total leaves room under its ceiling.
	for _, rel := range rels {
		rel()
	}
	ingRel()
	if c.Overloaded() {
		t.Fatalf("still overloaded after drain (inflight=%d)", c.Inflight())
	}
	rel, d := c.Admit(Pedigree)
	if !d.Admitted {
		t.Fatalf("pedigree shed after recovery: %+v", d)
	}
	rel()
	if got := c.Inflight(); got != 0 {
		t.Fatalf("inflight after full drain = %d, want 0", got)
	}
}

func TestReleaseIdempotent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrency = 8
	c := New(cfg)
	rel, _ := c.Admit(Search)
	rel()
	rel() // double release must not underflow the budget
	if got := c.Inflight(); got != 0 {
		t.Fatalf("inflight after double release = %d, want 0", got)
	}
}

func TestIngestBacklogBackpressure(t *testing.T) {
	var mu sync.Mutex
	records, bytes := 0, int64(0)
	cfg := DefaultConfig()
	cfg.MaxBacklogRecords = 100
	cfg.MaxBacklogBytes = 1 << 20
	cfg.BacklogRetryAfter = 3 * time.Second
	cfg.Backlog = func() (int, int64) {
		mu.Lock()
		defer mu.Unlock()
		return records, bytes
	}
	c := New(cfg)

	rel, d := c.Admit(Ingest)
	if !d.Admitted {
		t.Fatalf("ingest shed with empty backlog: %+v", d)
	}
	rel()

	set := func(r int, b int64) {
		mu.Lock()
		records, bytes = r, b
		mu.Unlock()
	}
	// Record bound.
	set(100, 0)
	if _, d := c.Admit(Ingest); d.Admitted {
		t.Fatal("ingest admitted over the record bound")
	} else if d.Reason != "backlog" || d.RetryAfter != 3*time.Second {
		t.Fatalf("backlog shed = %+v", d)
	}
	if !c.Overloaded() {
		t.Fatal("controller not overloaded with backlog over bound")
	}
	// Byte bound alone.
	set(1, 1<<20)
	if _, d := c.Admit(Ingest); d.Admitted {
		t.Fatal("ingest admitted over the byte bound")
	}
	// Backpressure only applies to ingest: searches unaffected.
	rel, d = c.Admit(Search)
	if !d.Admitted {
		t.Fatalf("search shed by ingest backlog: %+v", d)
	}
	rel()
	// Recovery after a flush drains the backlog.
	set(0, 0)
	rel, d = c.Admit(Ingest)
	if !d.Admitted {
		t.Fatalf("ingest shed after backlog drained: %+v", d)
	}
	rel()
}

// TestConcurrentAdmitRace hammers Admit/release from many goroutines; run
// under -race in CI. The invariant: inflight returns to zero and never
// exceeds the budget.
func TestConcurrentAdmitRace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrency = 32
	c := New(cfg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(cl Class) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				rel, d := c.Admit(cl)
				if d.Admitted {
					if got := c.Inflight(); got > 32 {
						t.Errorf("inflight %d exceeds budget", got)
						rel()
						return
					}
				}
				rel()
			}
		}([]Class{Search, Ingest, Pedigree, Search}[g%4])
	}
	wg.Wait()
	if got := c.Inflight(); got != 0 {
		t.Fatalf("inflight after drain = %d, want 0", got)
	}
}

// TestShardBacklogBackpressure pins the per-shard ingest backpressure: one
// hot shard over its bound sheds ingest with the dedicated reason even
// while the global backlog average looks healthy, recovery follows the
// hottest shard, and searches are never affected.
func TestShardBacklogBackpressure(t *testing.T) {
	var mu sync.Mutex
	hotShard, hotRecords, hotBytes := 0, 0, int64(0)
	cfg := DefaultConfig()
	cfg.MaxBacklogRecords = 1000 // global bound far away: only the shard trips
	cfg.MaxShardBacklogRecords = 10
	cfg.MaxShardBacklogBytes = 1 << 10
	cfg.BacklogRetryAfter = 2 * time.Second
	cfg.Backlog = func() (int, int64) { return 12, 64 } // well under global bounds
	cfg.ShardBacklog = func() (int, int, int64) {
		mu.Lock()
		defer mu.Unlock()
		return hotShard, hotRecords, hotBytes
	}
	c := New(cfg)

	rel, d := c.Admit(Ingest)
	if !d.Admitted {
		t.Fatalf("ingest shed with cold shards: %+v", d)
	}
	rel()

	set := func(s, r int, b int64) {
		mu.Lock()
		hotShard, hotRecords, hotBytes = s, r, b
		mu.Unlock()
	}
	// Record bound on one shard: the global backlog (12 records) is far from
	// its own bound, so only the per-shard signal can shed here.
	set(3, 10, 64)
	if _, d := c.Admit(Ingest); d.Admitted {
		t.Fatal("ingest admitted with a shard over its record bound")
	} else if d.Reason != "shard_backlog" || d.RetryAfter != 2*time.Second {
		t.Fatalf("shard backlog shed = %+v", d)
	}
	if !c.Overloaded() {
		t.Fatal("controller not overloaded with a shard over bound")
	}
	if over, s, r, _ := c.ShardBacklogExceeded(); !over || s != 3 || r != 10 {
		t.Fatalf("ShardBacklogExceeded = (%v, %d, %d, _)", over, s, r)
	}
	// Byte bound alone.
	set(1, 2, 1<<10)
	if _, d := c.Admit(Ingest); d.Admitted {
		t.Fatal("ingest admitted with a shard over its byte bound")
	}
	// Searches are unaffected by ingest backpressure.
	rel, d = c.Admit(Search)
	if !d.Admitted {
		t.Fatalf("search shed by shard backlog: %+v", d)
	}
	rel()
	// Recovery once the hot shard drains.
	set(3, 0, 0)
	rel, d = c.Admit(Ingest)
	if !d.Admitted {
		t.Fatalf("ingest shed after hot shard drained: %+v", d)
	}
	rel()
	if c.Overloaded() {
		t.Fatal("controller still overloaded after the hot shard drained")
	}
}

// TestPerShardBound pins the one derivation of the per-shard backlog bound
// both commands use: twice the fair share, capped at the global bound,
// floored at 1, and the global bound itself when unbounded, unsharded or
// at two shards.
func TestPerShardBound(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		global, shards, want int
	}{
		{"unbounded stays unbounded", 0, 4, 0},
		{"negative global passes through", -1, 4, -1},
		{"one shard gets the global bound", 4096, 1, 4096},
		{"zero shards means one", 4096, 0, 4096},
		{"two shards: twice the fair share is the global bound", 4096, 2, 4096},
		{"three shards: the first count below the global bound", 4096, 3, 2730},
		{"four shards: half", 4096, 4, 2048},
		{"seven shards round down", 100, 7, 28},
		{"floor at one", 3, 16, 1},
		{"cap at global", 5, 2, 5},
	} {
		if got := PerShardBound(tc.global, tc.shards); got != tc.want {
			t.Errorf("%s: PerShardBound(%d, %d) = %d, want %d", tc.name, tc.global, tc.shards, got, tc.want)
		}
		if got := PerShardBound(int64(tc.global), int64(tc.shards)); got != int64(tc.want) {
			t.Errorf("%s: int64 PerShardBound(%d, %d) = %d, want %d", tc.name, tc.global, tc.shards, got, tc.want)
		}
	}
}
