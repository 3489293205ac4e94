package load

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/snaps/snaps/internal/pedigree"
)

// Workload holds the queryable material mined from a pedigree graph: the
// hot head and the cold tail of the name distribution, plus the entity
// count for pedigree extractions. Real traffic is Zipfian — a few surnames
// dominate — so replaying only popular names would measure the result
// cache, and replaying only rare ones would measure nothing real. The two
// pools let a Mix dial the ratio explicitly.
type Workload struct {
	// Hot is the head of the name distribution: (first name, surname)
	// pairs whose surname is among the most frequent in the graph. Hot
	// searches hit the same few postings lists and the result cache.
	Hot []NamePair
	// Cold is the long tail: pairs whose surname occurs at most twice.
	// Cold searches are cache-hostile and exercise the full blocking and
	// scoring path.
	Cold []NamePair
	// Entities is the number of graph nodes; pedigree ops extract a
	// uniformly random entity id in [0, Entities).
	Entities int
}

// NamePair is one searchable (first name, surname) combination present in
// the graph.
type NamePair struct {
	First   string
	Surname string
}

// OpKind is the type of one replayed operation.
type OpKind uint8

const (
	OpSearchHot OpKind = iota
	OpSearchCold
	OpPedigree
	OpIngest
)

// Route is the per-route label used in reports and histograms.
func (k OpKind) Route() string {
	switch k {
	case OpSearchHot:
		return "search_hot"
	case OpSearchCold:
		return "search_cold"
	case OpPedigree:
		return "pedigree"
	case OpIngest:
		return "ingest"
	}
	return "op?"
}

// Op is one pre-generated operation. Search ops carry the name pair,
// pedigree ops the entity id, ingest ops the certificate JSON body.
type Op struct {
	Kind    OpKind
	First   string
	Surname string
	Entity  int
	Body    []byte
	// DueUs is the op's arrival offset in µs, i/rate for op i. The paced
	// loop reproduces it.
	DueUs int64
}

// BuildWorkload mines the graph for the hot and cold name pools.
func BuildWorkload(g *pedigree.Graph) (*Workload, error) {
	freq := map[string]int{}
	for i := range g.Nodes {
		for _, s := range g.Nodes[i].Surnames {
			freq[s]++
		}
	}
	if len(freq) == 0 {
		return nil, fmt.Errorf("graph has no surnames to build a workload from")
	}
	// Hot = the dozen most frequent surnames; every (first, surname) pair
	// of an entity bearing one is a hot query.
	type sf struct {
		s string
		n int
	}
	ranked := make([]sf, 0, len(freq))
	for s, n := range freq {
		ranked = append(ranked, sf{s, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].s < ranked[j].s
	})
	hotSet := map[string]bool{}
	for i := 0; i < len(ranked) && i < 12; i++ {
		hotSet[ranked[i].s] = true
	}

	w := &Workload{Entities: len(g.Nodes)}
	seen := map[NamePair]bool{}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if len(n.FirstNames) == 0 || len(n.Surnames) == 0 {
			continue
		}
		p := NamePair{First: n.FirstNames[0], Surname: n.Surnames[0]}
		if seen[p] {
			continue
		}
		seen[p] = true
		switch {
		case hotSet[p.Surname] && len(w.Hot) < 64:
			w.Hot = append(w.Hot, p)
		case freq[p.Surname] <= 2 && len(w.Cold) < 512:
			w.Cold = append(w.Cold, p)
		}
	}
	if len(w.Hot) == 0 {
		return nil, fmt.Errorf("no hot name pairs found")
	}
	if len(w.Cold) == 0 {
		// Tiny graphs may have no tail; fall back to the hot pool so cold
		// ops still resolve to real queries.
		w.Cold = w.Hot
	}
	return w, nil
}

// Mix is one traffic composition: per-kind probabilities (normalised over
// their sum) replayed at a fixed open-loop arrival rate.
type Mix struct {
	Name       string  `json:"name"`
	SearchHot  float64 `json:"search_hot"`
	SearchCold float64 `json:"search_cold"`
	Pedigree   float64 `json:"pedigree"`
	Ingest     float64 `json:"ingest"`
}

// Mixes returns the three standard compositions cmd/snapsload runs: the
// read-heavy steady state, a mixed day with renders
// and a trickle of ingest, and an ingest burst that drives the backlog into
// backpressure.
func Mixes() []Mix {
	return []Mix{
		{Name: "read-heavy", SearchHot: 0.70, SearchCold: 0.25, Pedigree: 0.05},
		{Name: "mixed", SearchHot: 0.40, SearchCold: 0.25, Pedigree: 0.20, Ingest: 0.15},
		{Name: "ingest-burst", SearchHot: 0.20, SearchCold: 0.10, Pedigree: 0.05, Ingest: 0.65},
	}
}

// MixByName finds a standard mix.
func MixByName(name string) (Mix, bool) {
	for _, m := range Mixes() {
		if m.Name == name {
			return m, true
		}
	}
	return Mix{}, false
}

// Ops pre-generates n operations for the mix, op i due i/rate seconds in,
// deterministically from the seed: generation happens before the clock
// starts so op construction never steals time from the arrival schedule,
// and two runs with the same seed replay the identical sequence.
func (w *Workload) Ops(m Mix, n int, rate float64, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	total := m.SearchHot + m.SearchCold + m.Pedigree + m.Ingest
	if total <= 0 {
		total, m.SearchHot = 1, 1
	}
	ops := make([]Op, n)
	for i := range ops {
		r := rng.Float64() * total
		switch {
		case r < m.SearchHot:
			p := w.Hot[rng.Intn(len(w.Hot))]
			ops[i] = Op{Kind: OpSearchHot, First: p.First, Surname: p.Surname}
		case r < m.SearchHot+m.SearchCold:
			p := w.Cold[rng.Intn(len(w.Cold))]
			ops[i] = Op{Kind: OpSearchCold, First: p.First, Surname: p.Surname}
		case r < m.SearchHot+m.SearchCold+m.Pedigree:
			ops[i] = Op{Kind: OpPedigree, Entity: rng.Intn(w.Entities)}
		default:
			// Synthetic birth: a unique child name under a hot surname, so
			// the certificate links into the existing graph when flushed.
			p := w.Hot[rng.Intn(len(w.Hot))]
			body := fmt.Sprintf(`{"type":"birth","year":%d,"address":"loadgen croft",`+
				`"roles":{"Bb":{"first_name":"loadgen%d","surname":%q,"gender":"m"},`+
				`"Bm":{"first_name":%q,"surname":%q}}}`,
				1850+rng.Intn(50), i, p.Surname, p.First, p.Surname)
			ops[i] = Op{Kind: OpIngest, Body: []byte(body)}
		}
		ops[i].DueUs = int64(float64(i) / rate * 1e6)
	}
	return ops
}
