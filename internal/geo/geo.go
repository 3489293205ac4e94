// Package geo provides the geocoding substrate the paper's future work
// calls for: a gazetteer that resolves historical addresses ("7 portree")
// to coordinates, geocoding of the records loaded from CSV or ingested
// live, and a haversine distance helper.
package geo

import (
	"strings"

	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/strsim"
)

// Gazetteer maps settlement names to coordinates and resolves full house
// addresses to a per-address jittered location within the settlement, so
// distinct households geocode to distinct points.
type Gazetteer struct {
	places map[string][2]float64
	// FuzzyThreshold enables approximate settlement matching: an unknown
	// settlement resolves to the most similar gazetteer entry at or above
	// this Jaro-Winkler similarity. Zero disables fuzzy matching.
	FuzzyThreshold float64
}

// NewGazetteer returns a gazetteer over the given places.
func NewGazetteer(places map[string][2]float64) *Gazetteer {
	cp := make(map[string][2]float64, len(places))
	for k, v := range places {
		cp[strings.ToLower(k)] = v
	}
	return &Gazetteer{places: cp, FuzzyThreshold: 0.92}
}

// jitterDeg is the maximum coordinate jitter applied per distinct address
// string (~0.015° ≈ 1.5 km).
const jitterDeg = 0.015

// Len returns the number of gazetteer entries.
func (g *Gazetteer) Len() int { return len(g.places) }

// Resolve geocodes a full address. The settlement is the address text
// after the leading house number, if any. It reports ok=false when the
// settlement is unknown (even fuzzily).
func (g *Gazetteer) Resolve(address string) (lat, lon float64, ok bool) {
	addr := strings.ToLower(strings.TrimSpace(address))
	if addr == "" {
		return 0, 0, false
	}
	settlement := addr
	if i := strings.IndexByte(addr, ' '); i > 0 && isNumber(addr[:i]) {
		settlement = addr[i+1:]
	}
	ll, found := g.places[settlement]
	if !found && g.FuzzyThreshold > 0 {
		best := g.FuzzyThreshold
		for name, coords := range g.places {
			if s := strsim.JaroWinkler(settlement, name); s >= best {
				best, ll, found = s, coords, true
			}
		}
	}
	if !found {
		return 0, 0, false
	}
	h := hash64(addr)
	lat = ll[0] + (float64(h&0xffff)/65535-0.5)*2*jitterDeg
	lon = ll[1] + (float64((h>>16)&0xffff)/65535-0.5)*2*jitterDeg
	return lat, lon, true
}

func isNumber(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// GeocodeRecords fills the Lat/Lon of every record whose address the
// gazetteer resolves, returning how many records were geocoded. Records
// with existing coordinates are left untouched.
func GeocodeRecords(recs []model.Record, g *Gazetteer) int {
	n := 0
	for i := range recs {
		rec := &recs[i]
		if rec.Addr == 0 || rec.Lat != 0 || rec.Lon != 0 {
			continue
		}
		if lat, lon, ok := g.Resolve(rec.Address()); ok {
			rec.Lat, rec.Lon = lat, lon
			n++
		}
	}
	return n
}

// Skye returns the built-in Isle of Skye gazetteer used by the simulator
// and the examples.
func Skye() *Gazetteer { return NewGazetteer(skyePlaces) }

var skyePlaces = map[string][2]float64{
	"portree": {57.4125, -6.1964}, "kilmore": {57.24, -5.90},
	"dunvegan": {57.4353, -6.5835}, "uig": {57.5876, -6.3637},
	"staffin": {57.6278, -6.2078}, "broadford": {57.2425, -5.9125},
	"elgol": {57.1456, -6.1062}, "carbost": {57.3031, -6.3544},
	"struan": {57.3586, -6.4114}, "edinbane": {57.4664, -6.4267},
	"kensaleyre": {57.4822, -6.2850}, "glendale": {57.4453, -6.7014},
	"waternish": {57.5200, -6.6000}, "sleat": {57.1500, -5.9000},
	"kyleakin": {57.2708, -5.7403}, "torrin": {57.2100, -6.0300},
	"luib": {57.2700, -6.0400}, "sconser": {57.3100, -6.1100},
	"braes": {57.3700, -6.1400}, "penifiler": {57.3900, -6.1800},
	"achachork": {57.4300, -6.2100}, "borve": {57.4500, -6.2600},
	"skeabost": {57.4600, -6.3200}, "bernisdale": {57.4700, -6.3500},
	"treaslane": {57.4800, -6.3800}, "flashader": {57.4900, -6.4300},
	"greshornish": {57.5000, -6.4400}, "colbost": {57.4400, -6.6400},
	"milovaig": {57.4500, -6.7500}, "husabost": {57.4800, -6.6800},
	"ramasaig": {57.4200, -6.7500}, "orbost": {57.4000, -6.6200},
	"roskhill": {57.4200, -6.5800}, "vatten": {57.4100, -6.5600},
	"harlosh": {57.3900, -6.5400}, "caroy": {57.3800, -6.5000},
	"bracadale": {57.3600, -6.4500}, "ullinish": {57.3400, -6.4600},
	"fiscavaig": {57.3300, -6.4900}, "portnalong": {57.3400, -6.4200},
}
