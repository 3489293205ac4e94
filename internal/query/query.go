// Package query implements the online query processing and ranking of
// Sec. 7 of the paper: a query with a mandatory first name and surname, an
// optional gender, year (or year range), and location is matched against
// the keyword index (exactly and approximately through the similarity-aware
// index), scored into an accumulator, and the top-m entities are returned
// ranked by their normalised match scores.
//
// The serving path is allocation-free in the steady state: candidates score
// into a pooled dense accumulator slab addressed through a reusable
// NodeID→slot table (epoch-reset, so recycling is O(1)), and ranking uses
// bounded top-m heap selection instead of sorting every candidate. Ranked
// output is byte-identical to the naive map + full-sort engine; the golden
// tests guard that equivalence.
package query

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/strsim"
)

// Engine metrics in the default registry, exposed at GET /metrics.
var (
	mSearches = obs.Default.Counter("snaps_query_searches_total",
		"Search queries answered by the ranking engine.")
	mSearchSeconds = obs.Default.Histogram("snaps_query_search_seconds",
		"End-to-end Search latency.", obs.DefBuckets)
	mCandidates = obs.Default.Histogram("snaps_query_candidates",
		"Entities entering the score accumulator per search.", obs.CountBuckets)
)

// Query is a user search request. FirstName and Surname are mandatory; the
// rest are optional (zero values mean "any").
type Query struct {
	FirstName string
	Surname   string
	Gender    model.Gender
	// YearFrom/YearTo bound the event year; zero means unbounded.
	YearFrom, YearTo int
	Location         string
	// CertType restricts results to entities with a record of this kind:
	// the web form's "search birth or death records" radio button.
	CertType model.CertType
	// HasCertType enables the CertType restriction.
	HasCertType bool

	// CenterLat, CenterLon, RadiusKm restrict results to entities whose
	// geocoded centroid lies within the radius — the geographic search
	// region of the paper's future work. RadiusKm <= 0 disables the
	// filter; entities without geocoded records are never excluded by it.
	CenterLat, CenterLon float64
	RadiusKm             float64
}

// Weights are the per-field match weights w_a of the ranking score s_r.
// Names dominate; year, gender, and location refine.
type Weights struct {
	FirstName, Surname, Gender, Year, Location float64
}

// DefaultWeights returns the weights used by the SNAPS web interface.
func DefaultWeights() Weights {
	return Weights{FirstName: 0.35, Surname: 0.35, Gender: 0.08, Year: 0.12, Location: 0.10}
}

// Result is one ranked entity.
type Result struct {
	Entity pedigree.NodeID
	// Score is the normalised match score in percent (100 = exact match on
	// every provided field).
	Score float64
	// Matched records which query fields matched exactly (true) or only
	// approximately (false); fields absent from the map did not match.
	Matched map[index.Field]bool
}

// Engine answers queries against the indexes and the pedigree graph.
type Engine struct {
	Graph   *pedigree.Graph
	Keyword *index.Keyword
	Similar *index.Similarity
	Weights Weights
	TopM    int

	// pool recycles per-search accumulator state.
	pool sync.Pool
}

// NewEngine wires an engine with default weights and the paper's result
// list size.
func NewEngine(g *pedigree.Graph, k *index.Keyword, s *index.Similarity) *Engine {
	return &Engine{Graph: g, Keyword: k, Similar: s, Weights: DefaultWeights(), TopM: 20}
}

// accumulator entry per candidate entity: the best weighted contribution
// per query field, plus whether that contribution was an exact match.
type accum struct {
	contrib  [index.NumFields]float64
	matched  [index.NumFields]bool
	hasField [index.NumFields]bool
	excluded bool
}

func (a *accum) score() float64 {
	s := 0.0
	for _, c := range a.contrib {
		s += c
	}
	return s
}

// searchState is the pooled per-search scratch: a dense accumulator slab
// plus the NodeID→slot table addressing it. The table is epoch-marked, so
// recycling it for the next search is a single counter increment instead
// of an O(nodes) clear.
type searchState struct {
	slot  []int32  // NodeID → index into ids/slab, valid iff mark[id] == epoch
	mark  []uint32 // epoch stamp per NodeID
	epoch uint32
	ids   []pedigree.NodeID // candidate NodeIDs in first-touch order
	slab  []accum           // accumulator per candidate, parallel to ids
	heap  []rankEntry       // top-m selection scratch
}

// getState fetches (or sizes) a search state for one search.
func (e *Engine) getState() *searchState {
	st, _ := e.pool.Get().(*searchState)
	if st == nil {
		st = &searchState{}
	}
	if n := len(e.Graph.Nodes); len(st.slot) < n {
		st.slot = make([]int32, n)
		st.mark = make([]uint32, n)
		st.epoch = 0
	}
	st.epoch++
	if st.epoch == 0 { // wrapped: invalidate all marks once
		for i := range st.mark {
			st.mark[i] = 0
		}
		st.epoch = 1
	}
	st.ids = st.ids[:0]
	st.slab = st.slab[:0]
	st.heap = st.heap[:0]
	return st
}

// Search runs the query and returns the top-m ranked entities. Entities
// enter the accumulator only through a name match (exact or approximate, on
// first name and/or surname); gender, year, and location only adjust scores
// of accumulated entities, never add new ones (Sec. 7).
func (e *Engine) Search(q Query) []Result {
	return e.SearchContext(context.Background(), q)
}

// SearchContext is Search under the caller's trace: when the context
// carries a span (the server's request middleware starts one), the
// query's four stages — blocking-key lookup, candidate accumulation,
// refinement-field scoring, and ranking — each record a child span with
// the sizes that drove their cost, so a slow search is attributable from
// GET /api/debug/traces or the slow-query log.
func (e *Engine) SearchContext(ctx context.Context, q Query) []Result {
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, "search")

	// Blocking-key lookup: both query names resolve to their similar
	// indexed values through the similarity-aware index S.
	_, bsp := obs.StartSpan(ctx, "blocking")
	memoHits := int64(0)
	lookupName := func(f index.Field, value string) (l index.SimilarList) {
		if value != "" {
			if l = e.Similar.Similar(f, value); !l.Computed {
				memoHits++
			}
		}
		return l
	}
	firstVals := lookupName(index.FieldFirstName, q.FirstName)
	surVals := lookupName(index.FieldSurname, q.Surname)
	bsp.SetAttr("similar_first_names", int64(firstVals.Len()))
	bsp.SetAttr("similar_surnames", int64(surVals.Len()))
	bsp.SetAttr("memo_hits", memoHits)
	bsp.End()

	// Candidate accumulation: entities carrying any similar name value
	// enter the accumulator with their best weighted contribution.
	st := e.getState()
	weightSum := e.Weights.FirstName + e.Weights.Surname
	_, asp := obs.StartSpan(ctx, "accumulate")
	e.accumulate(st, index.FieldFirstName, q.FirstName, firstVals, e.Weights.FirstName)
	e.accumulate(st, index.FieldSurname, q.Surname, surVals, e.Weights.Surname)
	asp.SetAttr("candidates", int64(len(st.ids)))
	asp.End()

	// Refinement fields.
	_, ssp := obs.StartSpan(ctx, "score")
	if q.Gender != model.GenderUnknown {
		weightSum += e.Weights.Gender
		for i := range st.slab {
			a := &st.slab[i]
			if e.Graph.Node(st.ids[i]).Gender == q.Gender {
				a.contrib[index.FieldGender] = e.Weights.Gender
				a.matched[index.FieldGender] = true
				a.hasField[index.FieldGender] = true
			}
		}
	}
	if q.YearFrom != 0 || q.YearTo != 0 {
		weightSum += e.Weights.Year
		from, to := q.YearFrom, q.YearTo
		if from == 0 {
			from = -1 << 30
		}
		if to == 0 {
			to = 1 << 30
		}
		for i := range st.slab {
			a := &st.slab[i]
			n := e.Graph.Node(st.ids[i])
			if n.MinYear != 0 && n.MinYear <= to && n.MaxYear >= from {
				a.contrib[index.FieldYear] = e.Weights.Year
				a.matched[index.FieldYear] = true
				a.hasField[index.FieldYear] = true
			}
		}
	}
	if q.Location != "" {
		weightSum += e.Weights.Location
		locVals := e.Similar.Similar(index.FieldLocation, q.Location)
		for i := range st.slab {
			a := &st.slab[i]
			if sim, exact, ok := e.bestLocation(st.ids[i], q.Location, locVals); ok {
				a.contrib[index.FieldLocation] = e.Weights.Location * sim
				a.matched[index.FieldLocation] = exact
				a.hasField[index.FieldLocation] = true
			}
		}
	}
	if q.HasCertType {
		for i := range st.slab {
			if !e.hasCertType(st.ids[i], q.CertType) {
				st.slab[i].excluded = true
			}
		}
	}
	if q.RadiusKm > 0 {
		for i := range st.slab {
			n := e.Graph.Node(st.ids[i])
			if n.HasGeo && strsim.GeoDistanceKm(q.CenterLat, q.CenterLon, n.Lat, n.Lon) > q.RadiusKm {
				st.slab[i].excluded = true
			}
		}
	}
	ssp.End()

	// Ranking: normalise, select the top-m by bounded heap, and
	// materialise Result values (Matched maps included) only for the
	// selected entities.
	_, rsp := obs.StartSpan(ctx, "rank")
	results := e.rank(st, weightSum)
	rsp.SetAttr("results", int64(len(results)))
	rsp.End()

	mSearches.Inc()
	mCandidates.Observe(float64(len(st.ids)))
	mSearchSeconds.ObserveDuration(time.Since(start))
	sp.SetAttr("candidates", int64(len(st.ids)))
	sp.SetAttr("results", int64(len(results)))
	sp.End()
	e.pool.Put(st)
	return results
}

// rankEntry is one candidate in the top-m selection heap.
type rankEntry struct {
	id    pedigree.NodeID
	score float64 // normalised score, identical to Result.Score
}

// rankBetter is the total order of the result list: score descending,
// NodeID ascending on ties. Comparing normalised scores (not raw weighted
// sums) keeps the order bit-identical to the historical sort-based engine.
func rankBetter(a, b rankEntry) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id < b.id
}

// rank selects the top-m candidates from the accumulator slab. With m > 0
// it keeps a bounded min-heap (root = worst kept entry) so a hot-name
// search does O(candidates · log m) work; m <= 0 returns every candidate,
// fully sorted.
func (e *Engine) rank(st *searchState, weightSum float64) []Result {
	m := e.TopM
	h := st.heap
	for i := range st.slab {
		a := &st.slab[i]
		if a.excluded {
			continue
		}
		ent := rankEntry{id: st.ids[i], score: 100 * a.score() / weightSum}
		if m <= 0 || len(h) < m {
			h = append(h, ent)
			if m > 0 && len(h) == m {
				// Heapify once the bound is reached.
				for j := len(h)/2 - 1; j >= 0; j-- {
					siftDown(h, j)
				}
			}
			continue
		}
		if rankBetter(ent, h[0]) {
			h[0] = ent
			siftDown(h, 0)
		}
	}
	st.heap = h // retain grown capacity for the next search
	// Within-heap order is partial; sort the (at most m) survivors into
	// the final ranking.
	sort.Slice(h, func(i, j int) bool { return rankBetter(h[i], h[j]) })
	results := make([]Result, 0, len(h))
	for _, ent := range h {
		a := &st.slab[st.slot[ent.id]]
		matched := map[index.Field]bool{}
		for f := index.Field(0); f < index.NumFields; f++ {
			if a.hasField[f] {
				matched[f] = a.matched[f]
			}
		}
		results = append(results, Result{Entity: ent.id, Score: ent.score, Matched: matched})
	}
	return results
}

// siftDown restores the min-heap property (root = worst entry under
// rankBetter) for the subtree rooted at i.
func siftDown(h []rankEntry, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(h) && rankBetter(h[worst], h[l]) {
			worst = l
		}
		if r < len(h) && rankBetter(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// accumulate adds entities matching any of the precomputed similar name
// values, weighting the contribution by string similarity. An entity
// matching several similar values keeps the best contribution.
func (e *Engine) accumulate(st *searchState, f index.Field, value string, similar index.SimilarList, weight float64) {
	for i := 0; i < similar.Len(); i++ {
		sv := similar.At(i)
		exact := sv.Value == value
		contribution := weight * sv.Sim
		// Iterate the compressed postings in place: decoding to a slice
		// here would put one allocation per similar value back on the hot
		// path the pooled accumulators took off it.
		for it := e.Keyword.Postings(f, sv.Value); ; {
			id, ok := it.Next()
			if !ok {
				break
			}
			var a *accum
			if st.mark[id] == st.epoch {
				a = &st.slab[st.slot[id]]
			} else {
				st.mark[id] = st.epoch
				st.slot[id] = int32(len(st.slab))
				st.ids = append(st.ids, id)
				st.slab = append(st.slab, accum{})
				a = &st.slab[len(st.slab)-1]
			}
			if contribution > a.contrib[f] {
				a.contrib[f] = contribution
				a.matched[f] = exact
			}
			a.hasField[f] = true
		}
	}
}

// bestLocation returns the best similarity between the query location and
// the entity's locations; similar is the query location's similarity list,
// looked up once per query.
func (e *Engine) bestLocation(id pedigree.NodeID, loc string, similar index.SimilarList) (sim float64, exact, ok bool) {
	n := e.Graph.Node(id)
	best := 0.0
	for _, l := range n.Locations {
		if s, listed := similar.Sim(l); listed && s > best {
			best = s
			exact = l == loc
		}
	}
	return best, exact, best > 0
}

// hasCertType reports whether the entity has a record from a certificate of
// the given type.
func (e *Engine) hasCertType(id pedigree.NodeID, t model.CertType) bool {
	n := e.Graph.Node(id)
	for _, rid := range n.Records {
		if e.Graph.Dataset.Record(rid).Role.CertType() == t {
			return true
		}
	}
	return false
}

// Explanation breaks a result's score down per query field, the data
// behind the interface's exact/approximate colour coding (Fig. 6).
type Explanation struct {
	// Fields holds one entry per query field that contributed.
	Fields []FieldExplanation
	// Score is the normalised total, identical to Result.Score.
	Score float64
}

// FieldExplanation is one field's contribution.
type FieldExplanation struct {
	Field index.Field
	// QueryValue and MatchedValue are the compared values; MatchedValue is
	// empty for non-string fields.
	QueryValue, MatchedValue string
	// Similarity of the value pair (1 for exact).
	Similarity float64
	// Weight of the field and the resulting weighted contribution.
	Weight, Contribution float64
	Exact                bool
}

// Explain recomputes the match between a query and one entity, reporting
// the per-field contributions. The entity need not have been returned by
// Search (its score may be zero).
func (e *Engine) Explain(q Query, id pedigree.NodeID) Explanation {
	n := e.Graph.Node(id)
	var out Explanation
	weightSum := e.Weights.FirstName + e.Weights.Surname

	explainName := func(f index.Field, qv string, values []string, weight float64) {
		if qv == "" {
			return
		}
		best, bestVal := 0.0, ""
		similar := e.Similar.Similar(f, qv)
		for i := 0; i < similar.Len(); i++ {
			sv := similar.At(i)
			for _, v := range values {
				if sv.Value == v && sv.Sim > best {
					best, bestVal = sv.Sim, v
				}
			}
		}
		if best > 0 {
			out.Fields = append(out.Fields, FieldExplanation{
				Field: f, QueryValue: qv, MatchedValue: bestVal,
				Similarity: best, Weight: weight, Contribution: weight * best,
				Exact: bestVal == qv,
			})
		}
	}
	explainName(index.FieldFirstName, q.FirstName, n.FirstNames, e.Weights.FirstName)
	explainName(index.FieldSurname, q.Surname, n.Surnames, e.Weights.Surname)

	if q.Gender != model.GenderUnknown {
		weightSum += e.Weights.Gender
		if n.Gender == q.Gender {
			out.Fields = append(out.Fields, FieldExplanation{
				Field: index.FieldGender, QueryValue: q.Gender.String(),
				MatchedValue: n.Gender.String(), Similarity: 1,
				Weight: e.Weights.Gender, Contribution: e.Weights.Gender, Exact: true,
			})
		}
	}
	if q.YearFrom != 0 || q.YearTo != 0 {
		weightSum += e.Weights.Year
		from, to := q.YearFrom, q.YearTo
		if from == 0 {
			from = -1 << 30
		}
		if to == 0 {
			to = 1 << 30
		}
		if n.MinYear != 0 && n.MinYear <= to && n.MaxYear >= from {
			out.Fields = append(out.Fields, FieldExplanation{
				Field: index.FieldYear, Similarity: 1,
				Weight: e.Weights.Year, Contribution: e.Weights.Year, Exact: true,
			})
		}
	}
	if q.Location != "" {
		weightSum += e.Weights.Location
		if sim, exact, ok := e.bestLocation(id, q.Location, e.Similar.Similar(index.FieldLocation, q.Location)); ok {
			out.Fields = append(out.Fields, FieldExplanation{
				Field: index.FieldLocation, QueryValue: q.Location,
				Similarity: sim, Weight: e.Weights.Location,
				Contribution: e.Weights.Location * sim, Exact: exact,
			})
		}
	}
	total := 0.0
	for _, f := range out.Fields {
		total += f.Contribution
	}
	if weightSum > 0 {
		out.Score = 100 * total / weightSum
	}
	return out
}

// ParseYear converts a form year string to an int, 0 when empty or invalid.
func ParseYear(s string) int {
	if s == "" {
		return 0
	}
	y, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return y
}
