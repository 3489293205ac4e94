package main

import (
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/ingest"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
	"github.com/snaps/snaps/internal/store"
)

// Only the traced run executes this file: direct calls into single layers,
// which the end-to-end numbers must not pay for.

const directSamples = 300

// directCalls times shard, server and pedigree alone, one caller, on tail
// queries the result cache has not seen.
func (s *stack) directCalls(ls *loadState) {
	sv := s.pipe.Serving()
	var direct, viaHTTP, extract []float64

	sp := s.tr.begin("Coordinator.Search", -1)
	for i := 0; i < directSamples; i++ {
		p := ls.gen.nextTail().pair
		t := time.Now()
		sv.Shards.Search(query.Query{FirstName: p.first, Surname: p.sur})
		direct = append(direct, ms(time.Since(t)))
	}
	s.tr.end(sp)

	sp = s.tr.begin("Server.ServeHTTP", -1)
	for i := 0; i < directSamples; i++ {
		o := ls.gen.nextTail()
		t := time.Now()
		s.do(http.MethodGet, o.target, nil)
		viaHTTP = append(viaHTTP, ms(time.Since(t)))
	}
	s.tr.end(sp)

	sp = s.tr.begin("Graph.Extract", -1)
	for i := 0; i < directSamples; i++ {
		id := pedigree.NodeID(i * len(sv.Graph.Nodes) / directSamples)
		t := time.Now()
		sv.Graph.Extract(id, s.srv.Generations)
		extract = append(extract, ms(time.Since(t)))
	}
	s.tr.end(sp)

	s.m["shard.search_p50_ms"] = percentile(direct, 0.50)
	s.m["server.overhead_p50_ms"] = percentile(viaHTTP, 0.50) - s.m["shard.search_p50_ms"]
	s.m["pedigree.extract_p50_ms"] = percentile(extract, 0.50)
}

// flushWalk performs one flush by hand with the public calls
// ingest.flushLocked makes, in its order, so that each step has a span. It
// publishes nothing. It returns the sizes the flush would have published.
func (s *stack) flushWalk(batch []ingest.Certificate) (records, entities, clusters int, err error) {
	sv := s.pipe.Serving()
	root := s.tr.begin("flush_walk", -1)
	defer s.tr.end(root)
	step := func(name, metric string, fn func()) {
		sp, t := s.tr.begin(name, root), time.Now()
		fn()
		s.tr.end(sp)
		if metric != "" {
			s.m[metric] = time.Since(t).Seconds()
		}
	}

	var newD *model.Dataset
	var firstNew model.RecordID
	step("Dataset.Clone+ingest.Apply", "ingest.clone_apply_s", func() {
		newD = sv.Dataset.Clone()
		firstNew = model.RecordID(len(newD.Records))
		for i := range batch {
			if _, err = ingest.Apply(newD, &batch[i]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var newStore *er.EntityStore
	step("Snapshot.Restore", "", func() {
		snap := store.Snapshot{Dataset: newD, Clusters: sv.Store.Clusters()}
		newStore = snap.Restore()
	})
	var epr *er.PipelineResult
	step("er.Extend", "er.extend_s", func() { epr = er.Extend(newD, newStore, firstNew, s.gcfg, s.rcfg) })
	s.m["er.extend_candidates"] = float64(epr.Candidates)
	var newG *pedigree.Graph
	step("pedigree.Build", "", func() { newG = pedigree.Build(newD, newStore) })
	step("Coordinator.Advance", "shard.advance_s", func() {
		_, ast := sv.Shards.Advance(newG, sv.Generation+1)
		s.m["shard.reused_ratio"] = float64(ast.Reused) / float64(ast.Reused+ast.Touched)
	})
	return len(newD.Records), len(newG.Nodes), len(newStore.Clusters()), nil
}

// heapSampler polls the live heap every 10 ms for its peak. It reads
// runtime/metrics, which unlike ReadMemStats does not stop the world.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				rtmetrics.Read(sample)
				if v := sample[0].Value.Uint64(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// finish stops the sampler and records the process's allocation totals.
func (h *heapSampler) finish(m metrics) {
	close(h.stop)
	h.wg.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["rt.heap_peak_mb"] = float64(h.peak) / (1 << 20)
	m["rt.alloc_mb"] = float64(ms.TotalAlloc) / (1 << 20)
	m["rt.mallocs_m"] = float64(ms.Mallocs) / 1e6
	m["rt.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
}
