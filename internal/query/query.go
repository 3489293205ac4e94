// Package query implements the online query processing and ranking of
// Sec. 7 of the paper: a query with a mandatory first name and surname, an
// optional gender, year (or year range), and location is matched against
// the keyword index (exactly and approximately through the similarity-aware
// index), scored into an accumulator, and the top-m entities are returned
// ranked by their normalised match scores.
//
// A search allocates only its result list in the steady state: candidates
// score into a pooled dense accumulator slab addressed through a reusable
// NodeID→slot table (epoch-reset, so recycling is O(1)), and ranking uses
// bounded top-m heap selection instead of sorting every candidate. Ranked
// output is byte-identical to the naive map + full-sort engine; the golden
// tests guard that equivalence.
package query

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/pedigree"
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
}

// years returns the query's year range, an open end widened to any year,
// and whether the query gives one.
func (q *Query) years() (from, to int, ok bool) {
	from, to = q.YearFrom, q.YearTo
	if from == 0 {
		from = -1 << 30
	}
	if to == 0 {
		to = 1 << 30
	}
	return from, to, q.YearFrom != 0 || q.YearTo != 0
}

// weights are the per-field match weights w_a of the ranking score s_r, the
// SNAPS web interface's: names dominate; year, gender, and location refine.
var weights = [index.NumFields]float64{
	index.FieldFirstName: 0.35,
	index.FieldSurname:   0.35,
	index.FieldLocation:  0.10,
	index.FieldGender:    0.08,
	index.FieldYear:      0.12,
}

// weightSum is the normaliser of s_r: the weights of the names and of every
// refinement field the query gives.
func weightSum(q *Query) float64 {
	s := weights[index.FieldFirstName] + weights[index.FieldSurname]
	if q.Gender != model.GenderUnknown {
		s += weights[index.FieldGender]
	}
	if _, _, ok := q.years(); ok {
		s += weights[index.FieldYear]
	}
	if q.Location != "" {
		s += weights[index.FieldLocation]
	}
	return s
}

// Match is how one query field matched an entity: not at all, only
// approximately, or exactly.
type Match uint8

const (
	MatchNone Match = iota
	MatchApprox
	MatchExact
)

// Result is one ranked entity.
type Result struct {
	Entity pedigree.NodeID
	// Score is the normalised match score in percent (100 = exact match on
	// every provided field).
	Score float64
	// Matched holds, per query field, whether it matched exactly, only
	// approximately, or not at all.
	Matched [index.NumFields]Match
}

// Engine answers queries against the indexes and the pedigree graph.
type Engine struct {
	Graph   *pedigree.Graph
	Keyword *index.Keyword
	Similar *index.Similarity
	TopM    int

	// pool recycles per-search accumulator state.
	pool sync.Pool
}

// NewEngine wires an engine with the paper's result list size.
func NewEngine(g *pedigree.Graph, k *index.Keyword, s *index.Similarity) *Engine {
	return &Engine{Graph: g, Keyword: k, Similar: s, TopM: 20}
}

// accum is the accumulator entry of one candidate entity: per query field,
// the similarity of its best match and how it matched.
type accum struct {
	sim      [index.NumFields]float64
	match    [index.NumFields]Match
	excluded bool
}

// set records field f's match at similarity sim.
func (a *accum) set(f index.Field, sim float64, exact bool) {
	a.sim[f], a.match[f] = sim, MatchApprox
	if exact {
		a.match[f] = MatchExact
	}
}

// offer records a name match at similarity sim when its weighted
// contribution, the quantity s_r sums, beats the field's best so far.
func (a *accum) offer(f index.Field, sim float64, exact bool) bool {
	if weights[f]*sim <= weights[f]*a.sim[f] {
		return false
	}
	a.set(f, sim, exact)
	return true
}

// score is s_r in percent: the weighted similarities summed in field order,
// over weightSum.
func (a *accum) score(weightSum float64) float64 {
	s := 0.0
	for f, sim := range a.sim {
		s += weights[f] * sim
	}
	return 100 * s / weightSum
}

// refine is the one scorer of the refinement fields: it scores the query's
// gender, year range and location against one entity into its accumulator
// entry, and excludes the entity when it lacks a record of a restricted
// certificate type. Gender and an overlapping year range match exactly; the
// location matches by its best similarity in locs, the table of the query
// location's similarity list. Search calls it per candidate, Explain for its
// entity.
func (e *Engine) refine(q *Query, locs *index.SimTable, n *pedigree.Node, a *accum) {
	if q.Gender != model.GenderUnknown && n.Gender == q.Gender {
		a.set(index.FieldGender, 1, true)
	}
	if from, to, ok := q.years(); ok && n.MinYear != 0 && n.MinYear <= to && n.MaxYear >= from {
		a.set(index.FieldYear, 1, true)
	}
	if q.Location != "" {
		best, exact := 0.0, false
		for _, l := range n.Locations {
			if s, listed := locs.Sim(l); listed && s > best {
				best, exact = s, l == q.Location
			}
		}
		if best > 0 {
			a.set(index.FieldLocation, best, exact)
		}
	}
	if q.HasCertType && !e.hasCertType(n, q.CertType) {
		a.excluded = true
	}
}

// similar returns the similarity list of value in field f, empty for an
// empty value.
func (e *Engine) similar(f index.Field, value string) (l index.SimilarList) {
	if value != "" {
		l = e.Similar.Similar(f, value)
	}
	return l
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
	locs  index.SimTable    // the query location's list, refilled per search
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
	lookupName := func(f index.Field, value string) index.SimilarList {
		l := e.similar(f, value)
		if value != "" && !l.Computed {
			memoHits++
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
	_, asp := obs.StartSpan(ctx, "accumulate")
	e.accumulate(st, index.FieldFirstName, firstVals)
	e.accumulate(st, index.FieldSurname, surVals)
	asp.SetAttr("candidates", int64(len(st.ids)))
	asp.End()

	// Refinement fields.
	_, ssp := obs.StartSpan(ctx, "score")
	st.locs.Reset(e.similar(index.FieldLocation, q.Location))
	for i := range st.slab {
		e.refine(&q, &st.locs, e.Graph.Node(st.ids[i]), &st.slab[i])
	}
	ssp.End()

	// Ranking: normalise, select the top-m by bounded heap, and
	// materialise Result values only for the selected entities.
	_, rsp := obs.StartSpan(ctx, "rank")
	results := e.rank(st, weightSum(&q))
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
		ent := rankEntry{id: st.ids[i], score: a.score(weightSum)}
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
	slices.SortFunc(h, func(a, b rankEntry) int {
		if rankBetter(a, b) {
			return -1
		}
		return 1 // ids are distinct, so no two entries tie
	})
	results := make([]Result, len(h))
	for i, ent := range h {
		results[i] = Result{Entity: ent.id, Score: ent.score, Matched: st.slab[st.slot[ent.id]].match}
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
// matching several similar values keeps the best contribution. An entry is
// an id, a similarity and an id comparison for exactness, and its entities
// are a slice of K addressed by the id: the loop never forms a string.
func (e *Engine) accumulate(st *searchState, f index.Field, similar index.SimilarList) {
	for i := 0; i < similar.Len(); i++ {
		value, sim, exact := similar.Entry(i)
		for _, id := range e.Keyword.Entities(f, value) {
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
			a.offer(f, sim, exact)
		}
	}
}

// hasCertType reports whether the entity has a record from a certificate of
// the given type.
func (e *Engine) hasCertType(n *pedigree.Node, t model.CertType) bool {
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
	// Score is the normalised total, bit for bit the entity's Result.Score.
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

// Explain scores one entity as Search does — its names offered in the order
// of their similarity lists, the rest through refine — and reports the
// per-field contributions. The entity need not have been returned by Search
// (its score may be zero).
func (e *Engine) Explain(q Query, id pedigree.NodeID) Explanation {
	n := e.Graph.Node(id)
	var a accum
	queryValue := [index.NumFields]string{index.FieldFirstName: q.FirstName,
		index.FieldSurname: q.Surname, index.FieldLocation: q.Location,
		index.FieldGender: q.Gender.String()}
	matchedValue := [index.NumFields]string{index.FieldGender: n.Gender.String()}
	name := func(f index.Field, values []string) {
		similar := e.similar(f, queryValue[f])
		for i := 0; i < similar.Len(); i++ {
			sv := similar.At(i)
			if slices.Contains(values, sv.Value) && a.offer(f, sv.Sim, sv.Value == queryValue[f]) {
				matchedValue[f] = sv.Value
			}
		}
	}
	name(index.FieldFirstName, n.FirstNames)
	name(index.FieldSurname, n.Surnames)
	var locs index.SimTable
	locs.Reset(e.similar(index.FieldLocation, q.Location))
	e.refine(&q, &locs, n, &a)

	out := Explanation{Score: a.score(weightSum(&q))}
	// Fields list the names, then gender, year and location.
	for _, f := range [...]index.Field{index.FieldFirstName, index.FieldSurname,
		index.FieldGender, index.FieldYear, index.FieldLocation} {
		if a.match[f] == MatchNone {
			continue
		}
		out.Fields = append(out.Fields, FieldExplanation{
			Field: f, QueryValue: queryValue[f], MatchedValue: matchedValue[f],
			Similarity: a.sim[f], Weight: weights[f], Contribution: weights[f] * a.sim[f],
			Exact: a.match[f] == MatchExact,
		})
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
