package geo

import (
	"testing"

	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/strsim"
)

func TestResolveExact(t *testing.T) {
	g := Skye()
	lat, lon, ok := g.Resolve("portree")
	if !ok {
		t.Fatal("portree not resolved")
	}
	if lat < 57.3 || lat > 57.5 || lon > -6.0 || lon < -6.4 {
		t.Errorf("portree at (%v,%v), expected near (57.41,-6.20)", lat, lon)
	}
}

func TestResolveHouseNumber(t *testing.T) {
	g := Skye()
	lat1, lon1, ok1 := g.Resolve("5 portree")
	lat2, lon2, ok2 := g.Resolve("7 portree")
	if !ok1 || !ok2 {
		t.Fatal("house addresses not resolved")
	}
	if lat1 == lat2 && lon1 == lon2 {
		t.Error("distinct houses should jitter to distinct points")
	}
	if strsim.GeoDistanceKm(lat1, lon1, lat2, lon2) > 6 {
		t.Error("houses in one settlement should stay within a few km")
	}
	// Resolution is deterministic.
	lat1b, lon1b, _ := g.Resolve("5 portree")
	if lat1 != lat1b || lon1 != lon1b {
		t.Error("resolution not deterministic")
	}
}

func TestResolveFuzzy(t *testing.T) {
	g := Skye()
	if _, _, ok := g.Resolve("3 portre"); !ok {
		t.Error("misspelt settlement should resolve fuzzily")
	}
	if _, _, ok := g.Resolve("9 llanfairpwll"); ok {
		t.Error("unknown settlement resolved")
	}
	if _, _, ok := g.Resolve(""); ok {
		t.Error("empty address resolved")
	}
}

func TestResolveCaseInsensitive(t *testing.T) {
	g := Skye()
	if _, _, ok := g.Resolve("12 Portree"); !ok {
		t.Error("capitalised address should resolve")
	}
}

func TestGeocodeDataset(t *testing.T) {
	d := &model.Dataset{Records: []model.Record{
		{ID: 0, Addr: model.Intern("5 portree")},
		{ID: 1, Addr: model.Intern("unknown place")},
		{ID: 2, Addr: model.Intern("")},
		{ID: 3, Addr: model.Intern("7 uig"), Lat: 1, Lon: 1}, // pre-geocoded: untouched
	}}
	n := GeocodeRecords(d.Records, Skye())
	if n != 1 {
		t.Fatalf("geocoded %d records, want 1", n)
	}
	if d.Records[0].Lat == 0 {
		t.Error("record 0 not geocoded")
	}
	if d.Records[1].Lat != 0 {
		t.Error("unknown address geocoded")
	}
	if d.Records[3].Lat != 1 {
		t.Error("pre-geocoded record modified")
	}
}

func TestDistanceKm(t *testing.T) {
	g := Skye()
	plat, plon, ok1 := g.Resolve("portree")
	ulat, ulon, ok2 := g.Resolve("uig")
	if !ok1 || !ok2 {
		t.Fatal("portree or uig not resolved")
	}
	if d := strsim.GeoDistanceKm(plat, plon, plat, plon); d != 0 {
		t.Errorf("distance to self = %v", d)
	}
	if d := strsim.GeoDistanceKm(plat, plon, ulat, ulon); d < 15 || d > 30 {
		t.Errorf("Portree-Uig = %v km, expected ~22", d)
	}
}

func TestIsNumber(t *testing.T) {
	if !isNumber("42") || isNumber("4a") || isNumber("") {
		t.Error("isNumber misbehaves")
	}
}
