// Package dataset simulates historical vital-records populations with the
// documented characteristics of the restricted Scottish data sets the paper
// evaluates on (Isle of Skye, Kilmarnock, Digitising Scotland) and of the
// BHIC data set used for scalability.
//
// The simulator runs a simple demographic model — founder couples, yearly
// marriages, births, and deaths — and emits a birth, death, or marriage
// certificate for each event inside the observation window. Every person
// mention on a certificate becomes one model.Record carrying the person's
// ground-truth identity, so linkage quality can be scored exactly.
//
// A configurable error model corrupts the emitted records the way
// transcribed 19th-century certificates are corrupted: typographical edits,
// nickname substitution, missing values, address drift over time, and the
// systematic surname change of women at marriage. These are exactly the
// phenomena (changing QID values, ambiguity, partial match groups) the SNAPS
// techniques target, so the synthetic data exercises the same code paths as
// the real data.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"github.com/snaps/snaps/internal/geo"
	"github.com/snaps/snaps/internal/model"
)

// Config parameterises a simulated population.
type Config struct {
	// Name labels the data set ("IOS", "KIL", ...).
	Name string
	// Seed makes generation reproducible.
	Seed int64

	// StartYear..EndYear is the observation window: only events in this
	// range emit certificates. The simulation itself starts earlier so the
	// initial population has realistic age structure.
	StartYear, EndYear int

	// Founders is the number of founding couples alive at StartYear.
	Founders int

	// ZipfS is the skew of the Zipf name distribution; larger is more
	// skewed. IOS uses a heavier skew than KIL (Fig. 2 of the paper).
	ZipfS float64

	// Surnames and addresses pools for the region.
	Surnames  []string
	Addresses []string

	// MaleFirstNames, FemaleFirstNames, and Nicknames override the default
	// Scottish name pools; nil selects the defaults. BHIC uses Dutch pools.
	MaleFirstNames   []string
	FemaleFirstNames []string
	Nicknames        map[string][]string

	// Geocode resolves addresses to coordinates, with its fuzzy settlement
	// matching off; nil disables geocoding (paper: only IOS is geocoded,
	// addresses in KIL and BHIC being absent or of low quality).
	Geocode *geo.Gazetteer

	// Error model.
	TypoRate     float64 // per-value probability of a typographical edit
	NicknameRate float64 // probability a first name appears as a variant
	MoveRate     float64 // yearly probability a family changes address
	// MissingRate is the per-attribute probability of a missing value.
	MissingRate map[model.Attr]float64

	// Demography. Deaths follow deathHazard's age curve.
	BirthRate    float64 // yearly probability a married couple has a child
	MarriageRate float64 // yearly probability an eligible single marries

	// CensusYears lists decennial census years; in each, every household
	// inside the observation window is enumerated as a census certificate.
	// Empty disables the census extension.
	CensusYears []int
}

// WithCensus returns a copy of the configuration with decennial censuses
// every ten years from the first year at or after StartYear ending in 1.
func (c Config) WithCensus() Config {
	c.CensusYears = nil
	for y := c.StartYear; y <= c.EndYear; y++ {
		if y%10 == 1 {
			c.CensusYears = append(c.CensusYears, y)
		}
	}
	return c
}

// IOS returns a configuration mirroring the Isle of Skye data set: a small
// island population with very few distinct names (heavy skew), complete
// addresses (geocodable), and few missing first names.
func IOS() Config {
	return Config{
		Name: "IOS", Seed: 101,
		StartYear: 1861, EndYear: 1901,
		Founders: 420, ZipfS: 0.85,
		Surnames: skyeSurnamesExt, Addresses: skyeAddresses,
		Geocode:  geo.Skye(),
		TypoRate: 0.07, NicknameRate: 0.10, MoveRate: 0.03,
		MissingRate: map[model.Attr]float64{
			model.FirstName:  0.017,
			model.Surname:    0.0002,
			model.Address:    0.012,
			model.Occupation: 0.57,
		},
		BirthRate: 0.33, MarriageRate: 0.09,
	}
}

// KIL returns a configuration mirroring Kilmarnock: a larger industrial
// town, flatter name distribution, many missing addresses and occupations,
// no geocoding.
func KIL() Config {
	return Config{
		Name: "KIL", Seed: 202,
		StartYear: 1861, EndYear: 1901,
		Founders: 900, ZipfS: 0.60,
		Surnames: kilSurnamesExt, Addresses: kilmarnockAddresses,
		TypoRate: 0.09, NicknameRate: 0.12, MoveRate: 0.08,
		MissingRate: map[model.Attr]float64{
			model.FirstName:  0.005,
			model.Surname:    0.0001,
			model.Address:    0.25,
			model.Occupation: 0.71,
		},
		BirthRate: 0.34, MarriageRate: 0.10,
	}
}

// DS returns a reduced-scale configuration standing in for the full
// Digitising Scotland database, used only for Table 1 statistics. The real
// DS has ~8.3M deceased entities; we simulate at 1/400 scale with the same
// relative missing-value profile (occupation missing for ~58% of records).
func DS() Config {
	c := KIL()
	c.Name = "DS"
	c.Seed = 303
	c.StartYear, c.EndYear = 1855, 1973
	c.Founders = 2600
	c.ZipfS = 0.70
	c.Surnames = append(append([]string{}, kilSurnamesExt...), skyeSurnamesExt...)
	c.MissingRate = dsMissingRate
	return c
}

// dsMissingRate is the missing-value profile of Digitising Scotland, shared
// by DS and the DS bench tiers. It is read, never written.
var dsMissingRate = map[model.Attr]float64{
	model.FirstName:  0.007,
	model.Surname:    0.0009,
	model.Address:    0.0013,
	model.Occupation: 0.58,
}

// BHIC returns a configuration for the scalability experiments (Table 6):
// the Brabant Historical Information Center civil certificates restricted to
// the window [startYear, 1935]. Scale grows as the window widens, exactly as
// in the paper. The founders count scales with window length so that graph
// size grows super-linearly with the window as in Table 6.
func BHIC(startYear int) Config {
	years := 1935 - startYear
	return Config{
		Name: fmt.Sprintf("BHIC-%d", startYear), Seed: int64(400 + startYear),
		StartYear: startYear, EndYear: 1935,
		Founders: 18 * years, ZipfS: 0.70,
		Surnames: dutchSurnames, Addresses: dutchPlaces,
		MaleFirstNames:   extendFirstNames(dutchMaleFirstNames),
		FemaleFirstNames: extendFirstNames(dutchFemaleFirstNames),
		Nicknames:        dutchNicknames,
		TypoRate:         0.08, NicknameRate: 0.10, MoveRate: 0.06,
		MissingRate: map[model.Attr]float64{
			model.FirstName:  0.01,
			model.Surname:    0.001,
			model.Address:    0.30,
			model.Occupation: 0.65,
		},
		BirthRate: 0.33, MarriageRate: 0.10,
	}
}

// ConfigByName maps the -dataset name the commands accept (ios, kil, ds or
// bhic, any case) to its simulation parameters.
func ConfigByName(name string) (Config, error) {
	switch strings.ToLower(name) {
	case "ios":
		return IOS(), nil
	case "kil":
		return KIL(), nil
	case "ds":
		return DS(), nil
	case "bhic":
		return BHIC(1900), nil
	}
	return Config{}, fmt.Errorf("unknown dataset %q (want ios, kil, ds, or bhic)", name)
}

// Scaled returns a copy of cfg with the founder population multiplied by f,
// used by benchmarks to grow or shrink workloads.
func (c Config) Scaled(f float64) Config {
	c.Founders = int(float64(c.Founders) * f)
	if c.Founders < 4 {
		c.Founders = 4
	}
	return c
}

// Person is a ground-truth individual in the simulated population.
type Person struct {
	ID     model.PersonID
	Gender model.Gender

	FirstName     string
	MaidenSurname string // surname at birth
	Surname       string // current surname (changes for women at marriage)

	BirthYear int
	DeathYear int // 0 while alive

	Mother, Father, Spouse model.PersonID // NoPerson when unknown

	Address    string
	Occupation string

	// MarriageYear is the year of the person's (only) marriage, 0 if
	// unmarried.
	MarriageYear int
}

// Population is the result of a simulation: the ground-truth people and the
// extracted certificate records.
type Population struct {
	Config  Config
	Persons []Person
	Dataset *model.Dataset
}

// Person returns the ground-truth person with the given id.
func (p *Population) Person(id model.PersonID) *Person { return &p.Persons[id] }

// generator carries simulation state.
type generator struct {
	cfg Config
	rng *rand.Rand

	persons []Person
	dataset *model.Dataset

	maleZipf, femaleZipf, surnameZipf *zipfSampler
	addrZipf, occZipf, causeZipf      *zipfSampler

	// gazetteer geocodes emitted addresses when the config provides one.
	gazetteer *geo.Gazetteer

	// hintRng draws the recorded-age noise separately from the main
	// stream, so enabling hints does not reshuffle the population draw.
	hintRng *rand.Rand

	// families indexes married couples by the husband's id for the yearly
	// birth draw.
	couples []model.PersonID // husband ids
}

// Generate runs the simulation for cfg and returns the population.
func Generate(cfg Config) *Population {
	g := &generator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		hintRng: rand.New(rand.NewSource(cfg.Seed ^ 0x5ea1)),
		dataset: &model.Dataset{
			Name: cfg.Name,
		},
	}
	if cfg.Geocode != nil {
		gz := *cfg.Geocode
		gz.FuzzyThreshold = 0 // corrupted addresses stay ungeocoded
		g.gazetteer = &gz
	}
	if g.cfg.MaleFirstNames == nil {
		g.cfg.MaleFirstNames = maleFirstNamesExt
	}
	if g.cfg.FemaleFirstNames == nil {
		g.cfg.FemaleFirstNames = femaleFirstNamesExt
	}
	if g.cfg.Nicknames == nil {
		g.cfg.Nicknames = nicknames
	}
	g.maleZipf = newZipf(g.rng, len(g.cfg.MaleFirstNames), cfg.ZipfS)
	g.femaleZipf = newZipf(g.rng, len(g.cfg.FemaleFirstNames), cfg.ZipfS)
	g.surnameZipf = newZipf(g.rng, len(cfg.Surnames), cfg.ZipfS)
	g.addrZipf = newZipf(g.rng, len(cfg.Addresses), 1.05)
	g.occZipf = newZipf(g.rng, len(occupations), 1.1)
	g.causeZipf = newZipf(g.rng, len(deathCauses), 1.15)

	g.seedFounders()
	for year := cfg.StartYear; year <= cfg.EndYear; year++ {
		g.stepYear(year)
	}
	return &Population{Config: cfg, Persons: g.persons, Dataset: g.dataset}
}

// zipfSampler draws Zipf-distributed indices in [0, n).
type zipfSampler struct {
	cdf []float64
	rng *rand.Rand
}

func newZipf(rng *rand.Rand, n int, s float64) *zipfSampler {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfSampler{cdf: cdf, rng: rng}
}

func (z *zipfSampler) next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (g *generator) newPerson(gender model.Gender, birthYear int, mother, father model.PersonID, surname string) model.PersonID {
	id := model.PersonID(len(g.persons))
	var first string
	if gender == model.Male {
		first = g.cfg.MaleFirstNames[g.maleZipf.next()]
	} else {
		first = g.cfg.FemaleFirstNames[g.femaleZipf.next()]
	}
	addr := g.newAddress()
	if mother != model.NoPerson {
		addr = g.persons[mother].Address // children born at the family address
	}
	occ := ""
	if gender == model.Male {
		occ = occupations[g.occZipf.next()]
	} else if g.rng.Float64() < 0.35 {
		occ = occupations[g.occZipf.next()]
	}
	g.persons = append(g.persons, Person{
		ID: id, Gender: gender,
		FirstName: first, MaidenSurname: surname, Surname: surname,
		BirthYear: birthYear,
		Mother:    mother, Father: father, Spouse: model.NoPerson,
		Address: addr, Occupation: occ,
	})
	return id
}

// seedFounders creates the founding married couples with staggered ages so
// the initial population is demographically plausible.
func (g *generator) seedFounders() {
	for i := 0; i < g.cfg.Founders; i++ {
		hAge := 20 + g.rng.Intn(25)
		wAge := 18 + g.rng.Intn(22)
		hSurname := g.cfg.Surnames[g.surnameZipf.next()]
		wSurname := g.cfg.Surnames[g.surnameZipf.next()]
		h := g.newPerson(model.Male, g.cfg.StartYear-hAge, model.NoPerson, model.NoPerson, hSurname)
		w := g.newPerson(model.Female, g.cfg.StartYear-wAge, model.NoPerson, model.NoPerson, wSurname)
		my := g.cfg.StartYear - 1 - g.rng.Intn(5)
		g.marry(h, w, my, false)
	}
}

// marry links two persons, changes the wife's surname, moves the couple to a
// shared address, and (when emit is set) emits a marriage certificate.
func (g *generator) marry(h, w model.PersonID, year int, emit bool) {
	hp, wp := &g.persons[h], &g.persons[w]
	hp.Spouse, wp.Spouse = w, h
	hp.MarriageYear, wp.MarriageYear = year, year
	wp.Surname = hp.Surname
	wp.Address = hp.Address
	g.couples = append(g.couples, h)
	if emit {
		g.emitMarriage(h, w, year)
	}
}

// stepYear advances the simulation one year: marriages, births, deaths,
// address moves.
func (g *generator) stepYear(year int) {
	// Marriages among eligible singles.
	var singleM, singleF []model.PersonID
	for i := range g.persons {
		p := &g.persons[i]
		if p.DeathYear != 0 || p.Spouse != model.NoPerson {
			continue
		}
		age := year - p.BirthYear
		if age < 18 || age > 50 {
			continue
		}
		if p.Gender == model.Male {
			singleM = append(singleM, p.ID)
		} else {
			singleF = append(singleF, p.ID)
		}
	}
	g.rng.Shuffle(len(singleM), func(i, j int) { singleM[i], singleM[j] = singleM[j], singleM[i] })
	g.rng.Shuffle(len(singleF), func(i, j int) { singleF[i], singleF[j] = singleF[j], singleF[i] })
	n := len(singleM)
	if len(singleF) < n {
		n = len(singleF)
	}
	for i := 0; i < n; i++ {
		if g.rng.Float64() < g.cfg.MarriageRate*2 {
			g.marry(singleM[i], singleF[i], year, true)
		}
	}

	// Births to married couples with a fertile wife.
	for _, h := range g.couples {
		hp := &g.persons[h]
		if hp.DeathYear != 0 || hp.Spouse == model.NoPerson {
			continue
		}
		w := hp.Spouse
		wp := &g.persons[w]
		if wp.DeathYear != 0 {
			continue
		}
		wAge := year - wp.BirthYear
		if wAge < 16 || wAge > 45 {
			continue
		}
		if g.rng.Float64() < g.cfg.BirthRate {
			gender := model.Male
			if g.rng.Float64() < 0.49 {
				gender = model.Female
			}
			child := g.newPerson(gender, year, w, h, hp.Surname)
			g.emitBirth(child, year)
		}
	}

	// Deaths with a bathtub-shaped age hazard typical of the period: high
	// infant mortality, low adult mortality, rising sharply in old age.
	for i := range g.persons {
		p := &g.persons[i]
		if p.DeathYear != 0 {
			continue
		}
		age := year - p.BirthYear
		if age < 0 {
			continue
		}
		if g.rng.Float64() < deathHazard(age) {
			p.DeathYear = year
			g.emitDeath(p.ID, year)
		}
	}

	// Census enumeration.
	for _, cy := range g.cfg.CensusYears {
		if cy == year {
			g.emitCensus(year)
			break
		}
	}

	// Address drift: families occasionally move.
	for i := range g.persons {
		p := &g.persons[i]
		if p.DeathYear != 0 {
			continue
		}
		if g.rng.Float64() < g.cfg.MoveRate {
			p.Address = g.newAddress()
			if p.Spouse != model.NoPerson && g.persons[p.Spouse].DeathYear == 0 {
				g.persons[p.Spouse].Address = p.Address
			}
		}
	}
}

// newAddress draws a house address: a house number plus a Zipf-distributed
// street or township name, e.g. "7 portree". House numbers make address
// strings discriminate at household granularity, matching the curated
// address quality of the real IOS data (Table 1: max address frequency is a
// small fraction of the records).
func (g *generator) newAddress() string {
	street := g.cfg.Addresses[g.addrZipf.next()]
	return fmt.Sprintf("%d %s", 1+g.rng.Intn(40), street)
}

// deathHazard returns the yearly death probability at a given age.
func deathHazard(age int) float64 {
	switch {
	case age == 0:
		return 0.12
	case age < 5:
		return 0.03
	case age < 15:
		return 0.006
	case age < 40:
		return 0.008
	case age < 60:
		return 0.015
	case age < 75:
		return 0.05
	default:
		return 0.16
	}
}
