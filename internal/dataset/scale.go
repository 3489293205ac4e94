package dataset

import (
	"fmt"
	"math/rand"

	"github.com/snaps/snaps/internal/model"
)

// This file holds the direct-emission generator behind the DS-scale bench
// tiers (100k–10M certificates). Config/Generate run a yearly demographic
// simulation whose per-year cost is proportional to everyone ever born, so
// it cannot reach millions of certificates in reasonable time. The scale
// generator instead emits complete households one at a time — marriage,
// births at one-to-three-year spacing, deaths inside the window — so cost
// is linear in the output and memory beyond the output is constant.
//
// The name substrate follows the simulation recipe of Herath & Roughan
// ("Simulating Name-like Vectors for Testing Large-scale Entity
// Resolution", PAPERS.md): the real regional pools seed the Zipf head so
// frequent values stay realistic (and nickname-able), and syllable-composed
// name-like strings fill the tail so a 10M-record corpus still has a
// plausible distinct-value count instead of recycling a few hundred names.
// Correlation comes from household structure (shared surnames and
// addresses, namesake children) and from villages whose surname draws are
// biased toward a community-local head, the way parish registers cluster.

// ScaleConfig parameterises the direct-emission generator: what its users
// vary is a seed and a size. The rest of the recipe is the constants below.
type ScaleConfig struct {
	Seed int64

	// TargetCerts stops emission once at least this many certificates
	// exist (the final household may overshoot by a handful). It also
	// names the tier ("DS-4k").
	TargetCerts int
}

// The DS recipe.
const (
	// scaleSurnames and scaleGivenNames size the synthetic name pools.
	scaleSurnames, scaleGivenNames = 24000, 3600

	// scaleZipfS skews the name draws, as Config.ZipfS does.
	scaleZipfS = 0.78

	// scaleStartYear..scaleEndYear is the emission window.
	scaleStartYear, scaleEndYear = 1855, 1973

	// namesakeRate is the probability a child is named after the
	// same-gender parent (the Scottish naming tradition). It concentrates
	// given names within households, creating the within-family ambiguity
	// that stresses entity resolution.
	namesakeRate = 0.28

	// villages partitions addresses into communities whose surname draws
	// rotate the Zipf head, so surnames correlate with addresses; a
	// village's address block holds streetsPerVillage street names.
	villages, streetsPerVillage = 160, 12

	// Error model, as in Config; missing values follow dsMissingRate.
	scaleTypoRate, scaleNicknameRate = 0.08, 0.10
)

// ScaleTier returns the configuration of a bench tier of the given
// certificate count.
func ScaleTier(certs int) ScaleConfig {
	return ScaleConfig{Seed: int64(9000 + certs%9973), TargetCerts: certs}
}

func tierLabel(certs int) string {
	switch {
	case certs >= 1000000 && certs%1000000 == 0:
		return fmt.Sprintf("%dM", certs/1000000)
	case certs >= 1000 && certs%1000 == 0:
		return fmt.Sprintf("%dk", certs/1000)
	}
	return fmt.Sprintf("%d", certs)
}

// GenerateScale emits a population of at least cfg.TargetCerts
// certificates. Output is deterministic for a given configuration.
func GenerateScale(cfg ScaleConfig) *Population {
	name := "DS-" + tierLabel(cfg.TargetCerts)
	gcfg := Config{
		Name: name, Seed: cfg.Seed,
		StartYear: scaleStartYear, EndYear: scaleEndYear,
		ZipfS:            scaleZipfS,
		Surnames:         syntheticSurnames(scaleSurnames),
		Addresses:        syntheticStreets(villages * streetsPerVillage),
		MaleFirstNames:   syntheticGivenNames(maleFirstNamesExt, scaleGivenNames),
		FemaleFirstNames: syntheticGivenNames(femaleFirstNamesExt, scaleGivenNames),
		Nicknames:        nicknames,
		TypoRate:         scaleTypoRate, NicknameRate: scaleNicknameRate,
		MissingRate: dsMissingRate,
	}
	g := &generator{
		cfg:     gcfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		hintRng: rand.New(rand.NewSource(cfg.Seed ^ 0x5ea1)),
		dataset: &model.Dataset{Name: name},
	}
	g.maleZipf = newZipf(g.rng, len(gcfg.MaleFirstNames), scaleZipfS)
	g.femaleZipf = newZipf(g.rng, len(gcfg.FemaleFirstNames), scaleZipfS)
	g.surnameZipf = newZipf(g.rng, len(gcfg.Surnames), scaleZipfS)
	g.addrZipf = newZipf(g.rng, len(gcfg.Addresses), 1.05)
	g.occZipf = newZipf(g.rng, len(occupations), 1.1)
	g.causeZipf = newZipf(g.rng, len(deathCauses), 1.15)

	// Pre-size the output slabs; the household mix averages ~2.7 records
	// per certificate.
	g.dataset.Certificates = make([]model.Certificate, 0, cfg.TargetCerts+cfg.TargetCerts/64)
	g.dataset.Records = make([]model.Record, 0, cfg.TargetCerts*27/10)

	s := &scaleEmitter{generator: g, villageZipf: newZipf(g.rng, villages, 1.0)}
	for len(g.dataset.Certificates) < cfg.TargetCerts {
		s.emitHousehold()
	}
	return &Population{Config: gcfg, Persons: g.persons, Dataset: g.dataset}
}

// scaleEmitter drives the shared emit paths household by household.
type scaleEmitter struct {
	*generator
	villageZipf *zipfSampler
}

// emitHousehold emits one complete family: the founding marriage, children
// at one-to-three-year spacing, and every death that falls inside the
// window. Certificates reference each other through the shared persons, so
// the household forms the same cross-certificate link structure (Bb-Dd,
// Bp-Dp, Mm-Bf, ...) the demographic simulation produces.
func (s *scaleEmitter) emitHousehold() {
	g := s.generator
	v := s.villageZipf.next()
	marriageYear := g.cfg.StartYear + g.rng.Intn(g.cfg.EndYear-g.cfg.StartYear-10)

	h := g.newPerson(model.Male, marriageYear-(21+g.rng.Intn(14)), model.NoPerson, model.NoPerson, s.villageSurname(v))
	w := g.newPerson(model.Female, marriageYear-(18+g.rng.Intn(12)), model.NoPerson, model.NoPerson, s.villageSurname(v))
	g.persons[h].Address = s.villageAddress(v)
	g.marry(h, w, marriageYear, true)

	members := []model.PersonID{h, w}
	year := marriageYear
	for i, n := 0, s.familySize(); i < n; i++ {
		year += 1 + g.rng.Intn(3)
		if year > g.cfg.EndYear {
			break
		}
		gender := model.Male
		if g.rng.Float64() < 0.49 {
			gender = model.Female
		}
		child := g.newPerson(gender, year, w, h, g.persons[h].Surname)
		s.applyNamesake(child, h, w)
		g.emitBirth(child, year)
		members = append(members, child)
	}

	for _, id := range members {
		p := &g.persons[id]
		dy := p.BirthYear + s.lifespan()
		if dy > p.BirthYear && dy >= g.cfg.StartYear && dy <= g.cfg.EndYear {
			p.DeathYear = dy
			g.emitDeath(id, dy)
		}
	}
}

// villageSurname draws a surname whose Zipf head is rotated per village:
// every village has its own handful of dominant families while the global
// tail stays shared.
func (s *scaleEmitter) villageSurname(v int) string {
	pool := s.generator.cfg.Surnames
	base := (v * 9973) % len(pool)
	return pool[(base+s.generator.surnameZipf.next())%len(pool)]
}

// villageAddress draws a house on one of the village's streets.
func (s *scaleEmitter) villageAddress(v int) string {
	streets := s.generator.cfg.Addresses
	idx := v*streetsPerVillage + s.generator.rng.Intn(streetsPerVillage)
	return fmt.Sprintf("%d %s", 1+s.generator.rng.Intn(60), streets[idx%len(streets)])
}

// applyNamesake renames a child after the same-gender parent with
// probability namesakeRate.
func (s *scaleEmitter) applyNamesake(child, h, w model.PersonID) {
	g := s.generator
	if g.rng.Float64() >= namesakeRate {
		return
	}
	cp := &g.persons[child]
	if cp.Gender == model.Male {
		cp.FirstName = g.persons[h].FirstName
	} else {
		cp.FirstName = g.persons[w].FirstName
	}
}

// familySize draws a geometric-ish child count with period-typical mean.
func (s *scaleEmitter) familySize() int {
	n := 0
	for n < 10 && s.generator.rng.Float64() < 0.78 {
		n++
	}
	return n
}

// lifespan draws age at death with the era's bathtub shape: high infant
// mortality, a long adult plateau, and an old-age mode.
func (s *scaleEmitter) lifespan() int {
	g := s.generator
	switch r := g.rng.Float64(); {
	case r < 0.12:
		return g.rng.Intn(2)
	case r < 0.20:
		return 2 + g.rng.Intn(13)
	case r < 0.45:
		return 15 + g.rng.Intn(40)
	default:
		return 55 + g.rng.Intn(35)
	}
}

// Syllable pools for composed name-like strings. Composition enumerates a
// mixed-radix index over the four slots, so every index below the product
// of the pool sizes yields a distinct string with no random search.
var (
	surPre = []string{"mac", "mc", "kil", "gil", "dal", "dun", "craig", "strath", "inver", "aber", "bal", "glen", "cal", "fin", "car", "loch", "blair", "kin", "pit"}
	surMid = []string{"", "a", "e", "o", "an", "ar", "en", "in", "on", "al", "el", "il", "ol", "ra", "ri", "ro", "na", "ne", "ni", "no", "la", "le", "li", "lo", "der", "ver"}
	surSuf = []string{"son", "ton", "ley", "well", "den", "der", "ert", "and", "ane", "och", "agh", "ie", "ay", "an", "mond", "ning", "more", "dale"}

	givenPre = []string{"al", "an", "ar", "be", "ca", "do", "ed", "el", "fi", "ge", "he", "is", "ja", "jo", "ke", "la", "ma", "ni", "ro", "wi"}
	givenMid = []string{"", "b", "d", "l", "ll", "m", "n", "nn", "r", "rr", "s", "ss", "t", "tt", "v"}
	givenSuf = []string{"a", "an", "as", "e", "el", "en", "ert", "et", "ia", "ie", "in", "ina", "is", "on", "us", "y"}
)

// composeNames appends mixed-radix syllable compositions to base until it
// holds n distinct entries (or the composition space is exhausted).
func composeNames(base []string, n int, pre, mid, suf []string) []string {
	out := append([]string{}, base...)
	seen := make(map[string]bool, n)
	for _, s := range out {
		seen[s] = true
	}
	limit := len(pre) * len(mid) * len(mid) * len(suf)
	for i := 0; len(out) < n && i < limit; i++ {
		s := pre[i%len(pre)] +
			mid[(i/len(pre))%len(mid)] +
			mid[(i/(len(pre)*len(mid)))%len(mid)] +
			suf[(i/(len(pre)*len(mid)*len(mid)))%len(suf)]
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func syntheticSurnames(n int) []string {
	base := append(append([]string{}, skyeSurnamesExt...), kilSurnamesExt...)
	return composeNames(dedupe(base), n, surPre, surMid, surSuf)
}

func syntheticGivenNames(base []string, n int) []string {
	return composeNames(base, n, givenPre, givenMid, givenSuf)
}

// syntheticStreets composes street names for the village blocks, seeded
// with the real regional address pools.
func syntheticStreets(n int) []string {
	base := append(append([]string{}, skyeAddresses...), kilmarnockAddresses...)
	return composeNames(dedupe(base), n, surPre, surMid, surSuf)
}

func dedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
