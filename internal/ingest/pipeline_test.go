package ingest

import (
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/geo"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/query"
)

// manualConfig disables the automatic triggers so tests control flushes.
func manualConfig() Config {
	cfg := DefaultConfig()
	cfg.BatchSize = 1 << 20
	cfg.MaxAge = time.Hour
	return cfg
}

func familyPipeline(t *testing.T, jr *Journal, backlog []Certificate, cfg Config) *Pipeline {
	t.Helper()
	d := familyDataset()
	pr := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())
	p, err := NewPipeline(NewServing(d, pr.Result.Store, 1, cfg), jr, backlog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// searchOne returns the top result for a first name + surname.
func searchOne(sv *Serving, first, sur string) (query.Result, bool) {
	res := sv.Shards.Search(query.Query{FirstName: first, Surname: sur})
	if len(res) == 0 {
		return query.Result{}, false
	}
	return res[0], true
}

func TestPipelineFlushMergesIntoExistingEntity(t *testing.T) {
	p := familyPipeline(t, nil, nil, manualConfig())
	defer p.Close()
	old := p.Serving()
	oldRecords := len(old.Dataset.Records)

	if err := p.Submit(torquilDeath()); err != nil {
		t.Fatal(err)
	}
	if p.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", p.Pending())
	}
	if p.Serving() != old {
		t.Fatal("serving bundle swapped before any flush")
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}

	sv := p.Serving()
	if sv == old {
		t.Fatal("flush did not publish a new generation")
	}
	if got := len(sv.Dataset.Records); got != oldRecords+3 {
		t.Fatalf("new generation has %d records, want %d", got, oldRecords+3)
	}
	res, ok := searchOne(sv, "torquil", "macsween")
	if !ok {
		t.Fatal("torquil not found in new generation")
	}
	n := sv.Graph.Node(res.Entity)
	if n.BirthYear != 1870 || n.DeathYear != 1875 {
		t.Errorf("entity years %d-%d, want 1870-1875 (death cert not merged)",
			n.BirthYear, n.DeathYear)
	}
	if len(n.Records) < 2 {
		t.Errorf("entity has %d records, want the birth and death records merged", len(n.Records))
	}

	// RCU: the old generation is untouched and still answers queries.
	if len(old.Dataset.Records) != oldRecords {
		t.Fatalf("old generation mutated: %d records", len(old.Dataset.Records))
	}
	oldRes, ok := searchOne(old, "torquil", "macsween")
	if !ok {
		t.Fatal("old generation stopped answering")
	}
	if old.Graph.Node(oldRes.Entity).DeathYear != 0 {
		t.Error("old generation sees the new certificate")
	}

	st := p.Status()
	if st.Applied != 1 || st.Flushes != 1 || st.Pending != 0 {
		t.Errorf("status %+v", st)
	}
}

func TestPipelineBatchSizeTriggersFlush(t *testing.T) {
	cfg := manualConfig()
	cfg.BatchSize = 2
	p := familyPipeline(t, nil, nil, cfg)
	defer p.Close()
	old := p.Serving()

	p.Submit(torquilDeath())
	birth := &Certificate{
		Type: "birth", Year: 1876, Address: "5 uig",
		Roles: map[string]Person{
			"Bb": {FirstName: "norman", Surname: "macsween", Gender: "m"},
			"Bm": {FirstName: "flora", Surname: "macsween"},
			"Bf": {FirstName: "ewen", Surname: "macsween"},
		},
	}
	p.Submit(birth)

	deadline := time.Now().Add(10 * time.Second)
	for p.Serving() == old && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	sv := p.Serving()
	if sv == old {
		t.Fatal("full batch did not flush within deadline")
	}
	if _, ok := searchOne(sv, "norman", "macsween"); !ok {
		t.Error("ingested-only entity not searchable")
	}
}

func TestPipelineMaxAgeTriggersFlush(t *testing.T) {
	cfg := manualConfig()
	cfg.MaxAge = 30 * time.Millisecond
	p := familyPipeline(t, nil, nil, cfg)
	defer p.Close()
	old := p.Serving()

	p.Submit(torquilDeath())
	deadline := time.Now().Add(10 * time.Second)
	for p.Serving() == old && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if p.Serving() == old {
		t.Fatal("aged batch did not flush within deadline")
	}
}

func TestPipelineJournalReplayAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	jr, backlog, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	p := familyPipeline(t, jr, backlog, manualConfig())
	if err := p.Submit(torquilDeath()); err != nil {
		t.Fatal(err)
	}
	// Crash before the batch is applied: the journal is the only trace.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	jr2, backlog2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog2) != 1 {
		t.Fatalf("replayed %d certificates, want 1", len(backlog2))
	}
	p2 := familyPipeline(t, jr2, backlog2, manualConfig())
	defer p2.Close()
	sv := p2.Serving()
	res, ok := searchOne(sv, "torquil", "macsween")
	if !ok {
		t.Fatal("torquil not found after replay")
	}
	if sv.Graph.Node(res.Entity).DeathYear != 1875 {
		t.Error("journalled certificate not applied on startup")
	}
}

// TestPipelineConcurrentSubmitSearchFlush hammers the swap path: searches
// race submissions and flushes under the race detector.
func TestPipelineConcurrentSubmitSearchFlush(t *testing.T) {
	cfg := manualConfig()
	cfg.BatchSize = 2
	cfg.MaxAge = 10 * time.Millisecond
	p := familyPipeline(t, nil, nil, cfg)
	defer p.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sv := p.Serving()
				sv.Shards.Search(query.Query{FirstName: "torquil", Surname: "macsween"})
				sv.Shards.Search(query.Query{FirstName: "flora", Surname: "macsween"})
			}
		}()
	}
	names := []string{"angus", "donald", "norman", "murdo", "kenneth", "roderick"}
	for _, nm := range names {
		c := &Certificate{
			Type: "birth", Year: 1880, Address: "5 uig",
			Roles: map[string]Person{
				"Bb": {FirstName: nm, Surname: "macsween", Gender: "m"},
				"Bm": {FirstName: "flora", Surname: "macsween"},
			},
		}
		if err := p.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	sv := p.Serving()
	for _, nm := range names {
		if _, ok := searchOne(sv, nm, "macsween"); !ok {
			t.Errorf("%s not searchable after flushes", nm)
		}
	}
	if st := p.Status(); st.Applied != len(names) {
		t.Errorf("applied %d, want %d", st.Applied, len(names))
	}
}

// flushStageCounts reads the observation count of every
// snaps_ingest_flush_stage_seconds series from the default registry's
// exposition, by stage.
func flushStageCounts(t *testing.T) map[string]int64 {
	t.Helper()
	var b strings.Builder
	if err := obs.Default.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	const prefix = `snaps_ingest_flush_stage_seconds_count{stage="`
	for _, line := range strings.Split(b.String(), "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		stage, value, _ := strings.Cut(rest, `"} `)
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("unparseable sample %q", line)
		}
		counts[stage] = n
	}
	return counts
}

// One flush adds one observation to each of its five stage series, which
// are named at the flush with obs.Label.
func TestFlushObservesEveryStageOnce(t *testing.T) {
	p := familyPipeline(t, nil, nil, manualConfig())
	defer p.Close()
	before := flushStageCounts(t)
	if err := p.Submit(torquilDeath()); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	after := flushStageCounts(t)
	stages := []string{"apply_batch", "restore_clusters", "er_extend", "rebuild_indexes", "snapshot_swap"}
	for _, stage := range stages {
		if d := after[stage] - before[stage]; d != 1 {
			t.Errorf("stage %s: %d observations in one flush, want 1", stage, d)
		}
	}
	if len(after) != len(stages) {
		t.Errorf("flush stage series %v, want exactly %v", after, stages)
	}
}

// deathAtPortree is a death certificate at a Skye address whose names no
// generated data set holds.
func deathAtPortree() *Certificate {
	return &Certificate{
		Type: "death", Year: 1890, Age: 60, Address: "7 portree",
		Roles: map[string]Person{
			"Dd": {FirstName: "torquil", Surname: "macsweenie", Gender: "m"},
			"Dm": {FirstName: "oighrig", Surname: "macsweenie"},
			"Df": {FirstName: "ewen", Surname: "macsweenie"},
		},
	}
}

// flushOne submits and flushes c and returns the records it appended.
func flushOne(t *testing.T, p *Pipeline, c *Certificate) []model.Record {
	t.Helper()
	n := len(p.Serving().Dataset.Records)
	if err := p.Submit(c); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	return p.Serving().Dataset.Records[n:]
}

// A flush over a geocoded build (IOS) geocodes the records it appends with
// the gazetteer CSV imports get, so their addresses compare by distance as
// the built records' do.
func TestFlushGeocodesLikeTheBuild(t *testing.T) {
	p := generatedPipeline(t, 0.05, manualConfig())
	defer p.Close()
	recs := flushOne(t, p, deathAtPortree())
	lat, lon, ok := geo.Skye().Resolve("7 portree")
	if !ok {
		t.Fatal("the gazetteer does not resolve 7 portree")
	}
	for _, r := range recs {
		if r.Role == model.Dd && (r.Lat != lat || r.Lon != lon) {
			t.Errorf("deceased at %q geocoded to (%v, %v), want (%v, %v)", r.Address(), r.Lat, r.Lon, lat, lon)
		}
		if r.Role != model.Dd && (r.Lat != 0 || r.Lon != 0) {
			t.Errorf("%v has no address but coordinates (%v, %v)", r.Role, r.Lat, r.Lon)
		}
	}
}

// A flush over a build without coordinates (the DS tiers) geocodes
// nothing, not even a Skye address.
func TestFlushWithoutCoordinatesGeocodesNothing(t *testing.T) {
	d := scaleDataset(1000, 0)
	st := er.RunLSH(d, blocking.ScaleLSHConfig(), depgraph.DefaultConfig(), er.DefaultConfig()).Result.Store
	p, err := NewPipeline(NewServing(d, st, 1, manualConfig()), nil, nil, manualConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, r := range flushOne(t, p, deathAtPortree()) {
		if r.Lat != 0 || r.Lon != 0 {
			t.Errorf("%v at %q geocoded to (%v, %v), want none", r.Role, r.Address(), r.Lat, r.Lon)
		}
	}
}
