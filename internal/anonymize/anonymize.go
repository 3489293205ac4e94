// Package anonymize implements the graph data anonymisation of Sec. 9 of
// the paper, which lets a SNAPS deployment expose a realistic but
// non-identifying version of a sensitive vital-records data set:
//
//   - Name mapping: female first names, male first names, and surnames are
//     clustered by string similarity in both the sensitive data set and a
//     public name corpus; each sensitive cluster is mapped to the public
//     cluster with the most similar intra-cluster structure, and every
//     sensitive name is replaced by a public one so that similarities
//     between names are approximately preserved.
//   - Year shifting: every year is moved by a global (secret) offset, so
//     temporal distances between vital events are preserved.
//   - Cause-of-death k-anonymity: causes occurring fewer than k times within
//     a gender × age stratum are replaced by the most similar frequent cause
//     (Jaccard similarity), or "not known" when none is similar, so rare and
//     potentially identifying causes disappear.
package anonymize

import (
	"sort"

	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/strsim"
)

const (
	// kAnonymity is the k-anonymity threshold for causes of death (paper:
	// k = 10).
	kAnonymity = 10
	// clusterThreshold is the minimum Jaro-Winkler similarity for a name
	// to join an existing name cluster.
	clusterThreshold = 0.82
)

// Anonymize returns a deep copy of the data set with names mapped to the
// public corpus, every year shifted by yearOffset, and rare causes of death
// generalised. The offset is the deployment's secret; tests pass a fixed
// value. The original data set is not modified. The returned mapping
// reports the name substitutions for audit/testing (sensitive → public).
func Anonymize(d *model.Dataset, yearOffset int) (*model.Dataset, map[string]string) {
	out := &model.Dataset{Name: d.Name + "-anon"}
	out.Records = append([]model.Record(nil), d.Records...)
	out.Certificates = make([]model.Certificate, len(d.Certificates))
	for i, c := range d.Certificates {
		cc := c
		cc.Roles = make(map[model.Role]model.RecordID, len(c.Roles))
		for r, id := range c.Roles {
			cc.Roles[r] = id
		}
		out.Certificates[i] = cc
	}

	mapping := buildNameMapping(d)
	for i := range out.Records {
		rec := &out.Records[i]
		if rec.First != 0 {
			rec.First = model.Intern(mapName(mapping, rec.FirstName()))
		}
		if rec.Sur != 0 {
			rec.Sur = model.Intern(mapName(mapping, rec.Surname()))
		}
		if rec.Year != 0 {
			rec.Year += yearOffset
		}
	}
	for i := range out.Certificates {
		if out.Certificates[i].Year != 0 {
			out.Certificates[i].Year += yearOffset
		}
	}
	anonymizeCauses(out)
	return out, mapping
}

func mapName(mapping map[string]string, name string) string {
	if v, ok := mapping[name]; ok {
		return v
	}
	return name
}

// nameCluster is a similarity cluster of names: a centre plus members.
type nameCluster struct {
	centre  string
	members []string
}

// clusterNames greedily clusters names (most frequent first) by similarity
// to existing cluster centres.
func clusterNames(names []string, freq map[string]int, threshold float64) []nameCluster {
	ordered := append([]string(nil), names...)
	sort.Slice(ordered, func(i, j int) bool {
		if freq[ordered[i]] != freq[ordered[j]] {
			return freq[ordered[i]] > freq[ordered[j]]
		}
		return ordered[i] < ordered[j]
	})
	var clusters []nameCluster
	for _, n := range ordered {
		placed := false
		for i := range clusters {
			if strsim.JaroWinkler(n, clusters[i].centre) >= threshold {
				clusters[i].members = append(clusters[i].members, n)
				placed = true
				break
			}
		}
		if !placed {
			clusters = append(clusters, nameCluster{centre: n, members: []string{n}})
		}
	}
	return clusters
}

// buildNameMapping clusters the sensitive names per name class, clusters
// the public corpus the same way, and maps rank-to-rank: the i-th largest
// sensitive cluster maps onto the i-th largest public cluster, member by
// member. Sensitive clusters larger than their public counterpart synthesise
// extra variants by suffixing the public centre, which preserves high
// intra-cluster similarity.
func buildNameMapping(d *model.Dataset) map[string]string {
	femFreq := map[string]int{}
	maleFreq := map[string]int{}
	surFreq := map[string]int{}
	for i := range d.Records {
		rec := &d.Records[i]
		if rec.First != 0 {
			switch rec.EffectiveGender() {
			case model.Female:
				femFreq[rec.FirstName()]++
			case model.Male:
				maleFreq[rec.FirstName()]++
			default:
				// Unknown gender names join the larger pool deterministically.
				femFreq[rec.FirstName()]++
			}
		}
		if rec.Sur != 0 {
			surFreq[rec.Surname()]++
		}
	}
	mapping := map[string]string{}
	mapClass(mapping, femFreq, publicFemaleNames)
	mapClass(mapping, maleFreq, publicMaleNames)
	mapClass(mapping, surFreq, publicSurnames)
	return mapping
}

func mapClass(mapping map[string]string, freq map[string]int, public []string) {
	if len(freq) == 0 || len(public) == 0 {
		return
	}
	names := make([]string, 0, len(freq))
	for n := range freq {
		if _, done := mapping[n]; !done {
			names = append(names, n)
		}
	}
	sensitive := clusterNames(names, freq, clusterThreshold)
	pubFreq := map[string]int{}
	for i, p := range public {
		pubFreq[p] = len(public) - i // corpus order encodes frequency rank
	}
	publicClusters := clusterNames(public, pubFreq, clusterThreshold)
	// Rank clusters by size (then centre) on both sides.
	rank := func(cs []nameCluster) {
		sort.Slice(cs, func(i, j int) bool {
			if len(cs[i].members) != len(cs[j].members) {
				return len(cs[i].members) > len(cs[j].members)
			}
			return cs[i].centre < cs[j].centre
		})
	}
	rank(sensitive)
	rank(publicClusters)
	for i, sc := range sensitive {
		pc := publicClusters[i%len(publicClusters)]
		for j, member := range sc.members {
			var repl string
			if j < len(pc.members) {
				repl = pc.members[j]
			} else {
				// Synthesise a similar variant of the public centre.
				repl = pc.centre + variantSuffix(j-len(pc.members))
			}
			// The corpora may overlap with the sensitive vocabulary; a name
			// must never map to itself, so fall back to a variant.
			if repl == member {
				repl = pc.centre + variantSuffix(len(sc.members)+j)
			}
			mapping[member] = repl
		}
	}
}

// variantSuffix produces short deterministic suffixes ("a", "b", ..., "aa").
func variantSuffix(i int) string {
	s := ""
	for {
		s = string(rune('a'+i%26)) + s
		i = i/26 - 1
		if i < 0 {
			break
		}
	}
	return s
}

// ageStratum buckets an age at death the way the paper does: young (<20),
// middle (20-40), old (40+). Unknown ages get their own stratum.
func ageStratum(age int) int {
	switch {
	case age < 0:
		return 3
	case age < 20:
		return 0
	case age < 40:
		return 1
	default:
		return 2
	}
}

// anonymizeCauses applies gender- and age-stratified k-anonymity to causes
// of death in place.
func anonymizeCauses(d *model.Dataset) {
	type stratum struct {
		gender model.Gender
		age    int
	}
	counts := map[stratum]map[string]int{}
	strOf := func(c *model.Certificate) (stratum, bool) {
		if c.Type != model.Death || c.Cause == "" {
			return stratum{}, false
		}
		rid, ok := c.Roles[model.Dd]
		if !ok {
			return stratum{}, false
		}
		g := d.Record(rid).Gender
		return stratum{gender: g, age: ageStratum(c.Age)}, true
	}
	for i := range d.Certificates {
		c := &d.Certificates[i]
		st, ok := strOf(c)
		if !ok {
			continue
		}
		if counts[st] == nil {
			counts[st] = map[string]int{}
		}
		counts[st][c.Cause]++
	}
	for i := range d.Certificates {
		c := &d.Certificates[i]
		st, ok := strOf(c)
		if !ok {
			continue
		}
		if counts[st][c.Cause] >= kAnonymity {
			continue // already frequent in its stratum
		}
		// Find the most similar frequent cause within the stratum.
		best, bestSim := "", 0.0
		frequent := make([]string, 0, len(counts[st]))
		for cause, n := range counts[st] {
			if n >= kAnonymity {
				frequent = append(frequent, cause)
			}
		}
		sort.Strings(frequent)
		for _, cause := range frequent {
			if s := strsim.Jaccard(c.Cause, cause); s > bestSim {
				best, bestSim = cause, s
			}
		}
		if best == "" || bestSim == 0 {
			best = "not known"
		}
		c.Cause = best
	}
}
