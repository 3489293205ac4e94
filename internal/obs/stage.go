package obs

import "time"

// stageFamily is the shared histogram family for pipeline stage timings:
// one labelled series per stage (blocking, graph construction, bootstrap,
// merge, refine, indexing, ...), so the offline pipeline, the ingest
// flush path, and the experiment harness all report through one source.
const stageFamily = "snaps_stage_seconds"

const stageHelp = "Wall-clock duration of one named pipeline stage."

// StageHistogram returns the latency histogram of one named stage in the
// default registry.
func StageHistogram(name string) *Histogram {
	return Default.Histogram(stageFamily+"{"+Label("stage", name)+"}", stageHelp, DefBuckets)
}

// Stage is a running timer for one named pipeline stage.
type Stage struct {
	h     *Histogram
	start time.Time
}

// StartStage begins timing a named stage.
func StartStage(name string) *Stage {
	return &Stage{h: StageHistogram(name), start: time.Now()}
}

// Stop records the elapsed time into the stage's histogram and returns it,
// so callers that also report the duration (er.PipelineResult, the
// experiment tables) measure exactly what the metrics show.
func (s *Stage) Stop() time.Duration {
	d := time.Since(s.start)
	s.h.ObserveDuration(d)
	return d
}

// ObserveStage records an externally measured duration for a stage —
// the path for code that already carries its own timings (depgraph build
// statistics, the resolver's phase breakdown).
func ObserveStage(name string, d time.Duration) {
	StageHistogram(name).ObserveDuration(d)
}
