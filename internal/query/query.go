// Package query implements the online query processing and ranking of
// Sec. 7 of the paper: a query with a mandatory first name and surname, an
// optional gender, year (or year range), and location is matched against
// the keyword index (exactly and approximately through the similarity-aware
// index), and the top-m entities are returned ranked by their normalised
// match scores.
//
// A search is one threshold walk (Fagin, Lotem & Naor) over the two names'
// similarity lists: it reads them most similar first, scores each entity
// in full the first time it reaches it, keeps the best m in a bounded heap,
// and stops once no entity it has not reached can rank. Its work follows
// the answer, not the corpus. A search allocates only its result list in
// the steady state: the walk's state is pooled, its entity marks are
// epoch-reset, so recycling is O(1). Ranked output is byte-identical to the
// naive map + full-sort engine; the golden tests guard that equivalence.
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
	"github.com/snaps/snaps/internal/symbol"
)

// Engine metrics in the default registry, exposed at GET /metrics.
var (
	mSearches = obs.Default.Counter("snaps_query_searches_total",
		"Search queries answered by the ranking engine.")
	mSearchSeconds = obs.Default.Histogram("snaps_query_search_seconds",
		"End-to-end Search latency.", obs.LatencyBuckets)
	mCandidates = obs.Default.Histogram("snaps_query_candidates",
		"Entities scored per search: those the walk reached before it stopped.", obs.CountBuckets)
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

// searchState is the pooled per-search scratch of the walk. mark stamps the
// entities the walk has scored with the search's epoch, so recycling it is
// one increment instead of an O(nodes) clear. pos[f] maps a value id of
// name field f to its position in the query's list of f, plus one, and 0
// to an unlisted value: the walk fills it from the list and clears it the
// same way, so it is all zero between searches.
type searchState struct {
	mark  []uint32 // epoch stamp per NodeID
	epoch uint32
	pos   [numNames][]uint32 // per name field, sized to K's ids
	heap  []Result           // top-m selection
	locs  index.SimTable     // the query location's list, refilled per search
}

// getState fetches (or sizes) a search state for one search.
func (e *Engine) getState() *searchState {
	st, _ := e.pool.Get().(*searchState)
	if st == nil {
		st = &searchState{}
	}
	if n := len(e.Graph.Nodes); len(st.mark) < n {
		st.mark = make([]uint32, n)
		st.epoch = 0
	}
	for f := range st.pos {
		if n := e.Keyword.IDLimit(index.Field(f)); len(st.pos[f]) < n {
			st.pos[f] = make([]uint32, n)
		}
	}
	st.epoch++
	if st.epoch == 0 { // wrapped: invalidate all marks once
		clear(st.mark)
		st.epoch = 1
	}
	st.heap = st.heap[:0]
	return st
}

// Search runs the query and returns the top-m ranked entities. Entities
// are reached only through a name match (exact or approximate, on first
// name and/or surname); gender, year, and location only adjust the scores
// of reached entities, never add new ones (Sec. 7).
func (e *Engine) Search(q Query) []Result {
	return e.SearchContext(context.Background(), q)
}

// SearchContext is Search under the caller's trace: when the context
// carries a span (the server's request middleware starts one), the
// query's three stages — blocking-key lookup, the walk that scores the
// candidates, and ranking — each record a child span with the sizes that
// drove their cost, so a slow search is attributable from
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
	lists := nameLists{
		index.FieldFirstName: lookupName(index.FieldFirstName, q.FirstName),
		index.FieldSurname:   lookupName(index.FieldSurname, q.Surname),
	}
	bsp.SetAttr("similar_first_names", int64(lists[index.FieldFirstName].Len()))
	bsp.SetAttr("similar_surnames", int64(lists[index.FieldSurname].Len()))
	bsp.SetAttr("memo_hits", memoHits)
	bsp.End()

	// The walk: entities reached through the name lists are scored in full
	// and the best m kept, until no entity not yet reached can rank.
	st := e.getState()
	_, asp := obs.StartSpan(ctx, "accumulate")
	w := e.walk(st, &q, &lists)
	asp.SetAttr("candidates", int64(w.scored))
	asp.SetAttr("entries", int64(w.read[index.FieldFirstName]+w.read[index.FieldSurname]))
	stopped := int64(0)
	if w.stopped {
		stopped = 1
	}
	asp.SetAttr("stopped", stopped)
	asp.End()

	// Ranking: order the kept entities.
	_, rsp := obs.StartSpan(ctx, "rank")
	results := st.ranking()
	rsp.SetAttr("results", int64(len(results)))
	rsp.End()

	mSearches.Inc()
	mCandidates.Observe(float64(w.scored))
	mSearchSeconds.ObserveDuration(time.Since(start))
	sp.SetAttr("candidates", int64(w.scored))
	sp.SetAttr("results", int64(len(results)))
	sp.End()
	e.pool.Put(st)
	return results
}

// walkStats is what one walk did: the entities it scored, the entries it
// read of each name list, and whether it stopped before the end of both.
type walkStats struct {
	scored  int
	read    [numNames]int
	stopped bool
}

// numNames is the number of name fields, which are the first fields.
const numNames = index.FieldSurname + 1

// nameLists is the pair of name lists a search walks, indexed by field.
type nameLists = [numNames]index.SimilarList

// walk is the threshold algorithm of Fagin, Lotem & Naor over the query's
// two name lists. It reads them in the order of their next entry's
// weighted contribution, scores each entity in full the first time an
// entry reaches it, keeps the best TopM in st.heap, and stops as soon as no
// entity it has not reached can rank among them; TopM <= 0 reads both lists
// to the end.
//
// The stop is exact. An entity not yet reached matches each name field at
// most at its list's next similarity, and each refinement field the query
// gives at most at 1. bound holds those similarities, and its score is at
// least the entity's, because rounding is monotone. The walk stops when
// that bound is strictly below the m-th score: an entity that tied it
// could still win on its lower id.
func (e *Engine) walk(st *searchState, q *Query, lists *nameLists) (w walkStats) {
	ws := weightSum(q)
	var bound accum
	if q.Gender != model.GenderUnknown {
		bound.sim[index.FieldGender] = 1
	}
	if _, _, ok := q.years(); ok {
		bound.sim[index.FieldYear] = 1
	}
	if q.Location != "" {
		bound.sim[index.FieldLocation] = 1
	}
	st.locs.Reset(e.similar(index.FieldLocation, q.Location))
	at := &w.read // the next entry of each list, as many as it has read
	for f := range lists {
		place(st.pos[f], lists[f].IDs(), true)
		if lists[f].Len() > 0 {
			bound.sim[f] = lists[f].Sim(0)
		}
	}
	const sur = index.FieldSurname
	for {
		if m := e.TopM; m > 0 && len(st.heap) == m && bound.score(ws) < st.heap[0].Score {
			w.stopped = true
			break
		}
		f := index.FieldFirstName
		if at[f] == lists[f].Len() || at[sur] < lists[sur].Len() && weights[sur]*bound.sim[sur] > weights[f]*bound.sim[f] {
			f = sur
		}
		if at[f] == lists[f].Len() {
			break // both lists read
		}
		id, sim, exact := lists[f].Entry(at[f])
		if at[f]++; at[f] < lists[f].Len() {
			bound.sim[f] = lists[f].Sim(at[f])
		} else {
			bound.sim[f] = 0
		}
		for _, n := range e.Keyword.Entities(f, id) {
			if st.mark[n] != st.epoch {
				st.mark[n] = st.epoch
				w.scored++
				e.reach(st, q, lists, f, sim, exact, n, ws)
			}
		}
	}
	for f := range lists {
		place(st.pos[f], lists[f].IDs(), false)
	}
	return w
}

// place writes the position of each listed value, plus one, into its slot
// of pos, or clears the slots again. A value past pos has no entities.
func place(pos []uint32, ids []symbol.ID, set bool) {
	for i, id := range ids {
		if int(id) < len(pos) {
			p := uint32(i + 1)
			if !set {
				p = 0
			}
			pos[id] = p
		}
	}
}

// reach scores entity n, which the walk first reached through an entry of
// field f at similarity sim, as the whole lists would score it, and offers
// it to the top-m selection; an excluded entity is not offered. A list is
// most similar first, so that entry is n's best f-match and the first to
// reach that similarity, which is the entry offer keeps. The other name
// field g is matched by random access: the entry offer would keep reading
// g's list is the one at the smallest position among n's g-values (K's
// transpose), read through st.pos[g].
func (e *Engine) reach(st *searchState, q *Query, lists *nameLists, f index.Field, sim float64, exact bool, n pedigree.NodeID, ws float64) {
	var a accum
	a.offer(f, sim, exact)
	g := index.FieldSurname - f
	best := uint32(0)
	for _, v := range e.Keyword.NodeValues(g, n) {
		// Unsigned, p-1 < best-1 reads "listed, and before the best so
		// far": an unlisted 0 and an unset 0 both wrap to the largest.
		if p := st.pos[g][v]; p-1 < best-1 {
			best = p
		}
	}
	if best != 0 {
		_, gsim, gexact := lists[g].Entry(int(best - 1))
		a.offer(g, gsim, gexact)
	}
	e.refine(q, &st.locs, e.Graph.Node(n), &a)
	if !a.excluded {
		st.keep(Result{Entity: n, Score: a.score(ws), Matched: a.match}, e.TopM)
	}
}

// RankBetter reports whether a ranks before b in the total order of a
// result list: score descending, NodeID ascending on ties. Comparing
// normalised scores (not raw weighted sums) keeps the order bit-identical
// to the historical sort-based engine. The shards' rankings are merged
// under the same order.
func RankBetter(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Entity < b.Entity
}

// keep offers r to the top-m selection. With m > 0 the heap is bounded, a
// min-heap (root = worst kept entry) once full, so a search does O(scored ·
// log m) work; m <= 0 keeps every result.
func (st *searchState) keep(r Result, m int) {
	h := st.heap
	switch {
	case m <= 0 || len(h) < m:
		h = append(h, r)
		if len(h) == m {
			// Heapify once the bound is reached.
			for j := len(h)/2 - 1; j >= 0; j-- {
				siftDown(h, j)
			}
		}
	case RankBetter(r, h[0]):
		h[0] = r
		siftDown(h, 0)
	}
	st.heap = h // retain grown capacity for the next search
}

// ranking sorts the kept results, whose order within the heap is partial,
// into the result list.
func (st *searchState) ranking() []Result {
	slices.SortFunc(st.heap, func(a, b Result) int {
		if RankBetter(a, b) {
			return -1
		}
		return 1 // ids are distinct, so no two entries tie
	})
	results := make([]Result, len(st.heap))
	copy(results, st.heap)
	return results
}

// siftDown restores the min-heap property (root = worst entry under
// RankBetter) for the subtree rooted at i.
func siftDown(h []Result, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(h) && RankBetter(h[worst], h[l]) {
			worst = l
		}
		if r < len(h) && RankBetter(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
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
