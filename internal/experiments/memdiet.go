package experiments

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/store"
	"github.com/snaps/snaps/internal/symbol"
)

// Memdiet runs one DS-scale tier end to end — generate, offline build,
// v02 snapshot — and reports its memory and snapshot figures as a single
// JSON object. (The frozen comparison against the pre-diet record layout
// and the v01 gob snapshot is the PR 9 line of CHANGES.md.)
//
// Two bytes-per-record figures are reported: record-plane (the record slab
// plus the amortised symbol table) and full-footprint
// (store.FootprintBytes over everything the snapshot holds: records,
// certificates, clusters, symbol table).
func Memdiet(w io.Writer, certs int) {
	runtime.GC()
	heapBase := heapAllocBytes()
	watch := newHeapWatch()

	t0 := time.Now()
	pop := dataset.GenerateScale(dataset.ScaleTier(certs))
	genSec := time.Since(t0).Seconds()
	heapAfterGen := heapAllocBytes()

	t0 = time.Now()
	pr := er.RunLSH(pop.Dataset, blocking.ScaleLSHConfig(), depgraph.DefaultConfig(), er.DefaultConfig())
	buildSec := time.Since(t0).Seconds()
	heapAfterBuild := heapAllocBytes()
	heapPeak := watch.stop()

	snap := store.FromResult(pop.Dataset, pr.Result.Store)
	n := len(pop.Dataset.Records)

	footprint := store.FootprintBytes(snap.Dataset, snap.Clusters)
	recPlane := int64(n)*64 + symbol.Bytes() + 16*int64(symbol.Len())

	var v02 bytes.Buffer
	if err := store.Write(&v02, snap); err != nil {
		fmt.Fprintf(w, `{"experiment":"memdiet","error":%q}`+"\n", err.Error())
		return
	}

	fmt.Fprintf(w, `{"experiment":"memdiet","tier":%q,"certs":%d,"records":%d,"clusters":%d,`+
		`"gen_seconds":%.2f,"build_seconds":%.2f,`+
		`"record_bytes_per_record":%.1f,"footprint_bytes_per_record":%.1f,`+
		`"heap_base_bytes":%d,"heap_after_gen_bytes":%d,"heap_after_build_bytes":%d,"heap_peak_bytes":%d,`+
		`"snapshot_v02_bytes":%d,"snapshot_v02_load_seconds":%.3f}`+"\n",
		dataset.ScaleTier(certs).Name, len(pop.Dataset.Certificates), n, len(snap.Clusters),
		genSec, buildSec,
		float64(recPlane)/float64(n), float64(footprint)/float64(n),
		heapBase, heapAfterGen, heapAfterBuild, heapPeak,
		v02.Len(), timeSnapshotLoad(v02.Bytes()))
}

func heapAllocBytes() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heapWatch samples HeapAlloc in the background and keeps the maximum, so
// the peak inside a long build stage is visible rather than just the
// stage-boundary values.
type heapWatch struct {
	mu   sync.Mutex
	max  uint64
	quit chan struct{}
	done chan struct{}
}

func newHeapWatch() *heapWatch {
	h := &heapWatch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-t.C:
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				h.mu.Lock()
				if m.HeapAlloc > h.max {
					h.max = m.HeapAlloc
				}
				h.mu.Unlock()
			}
		}
	}()
	return h
}

func (h *heapWatch) stop() uint64 {
	close(h.quit)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// timeSnapshotLoad reports the faster of two decode passes over the bytes.
func timeSnapshotLoad(data []byte) float64 {
	best := 0.0
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		if _, err := store.Read(bytes.NewReader(data)); err != nil {
			return -1
		}
		if s := time.Since(t0).Seconds(); i == 0 || s < best {
			best = s
		}
	}
	return best
}
