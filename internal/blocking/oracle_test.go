package blocking

import (
	"slices"
	"sort"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/par/partest"
)

// oracleKey identifies one block of the reference emitter.
type oracleKey struct {
	band int
	hash uint64
}

// lshBlocks builds the LSH blocks the way Pairs used to: every record is
// hashed on its own and appended, in ids order, to a map of blocks.
func lshBlocks(d *model.Dataset, ids []model.RecordID, cfg LSHConfig) map[oracleKey][]model.RecordID {
	l := NewLSH(cfg)
	sig, out := make([]uint64, len(l.mixers)), make([]uint64, l.cfg.Bands)
	blocks := map[oracleKey][]model.RecordID{}
	for _, id := range ids {
		rec := d.Record(id)
		l.bandHashes(nameKeySyms(rec.First, rec.Sur), sig, out)
		for b, h := range out {
			blocks[oracleKey{b, h}] = append(blocks[oracleKey{b, h}], id)
		}
		if rec.Sur == 0 {
			continue
		}
		l.bandHashes(rec.Surname(), sig, out)
		for b, h := range out {
			blocks[oracleKey{l.cfg.Bands + b, h}] = append(blocks[oracleKey{l.cfg.Bands + b, h}], id)
		}
	}
	return blocks
}

// tableBlocks builds the same map from signature tables.
func tableBlocks(ids []model.RecordID, tables []sigTable) map[oracleKey][]model.RecordID {
	blocks := map[oracleKey][]model.RecordID{}
	base := 0
	for _, t := range tables {
		for p, r := range t.row {
			for o := 0; r >= 0 && o < t.width; o++ {
				k := oracleKey{base + o, t.sigs[int(r)*t.width+o]}
				blocks[k] = append(blocks[k], ids[p])
			}
		}
		base += t.width
	}
	return blocks
}

// oraclePairs is the emitter this package had before blocks were built by
// sorting: drop the blocks over the cap, walk the rest in (band, hash)
// order, and let a table of every pair emitted so far decide which
// occurrence of a pair is the first. It returns what it dropped as well.
func oraclePairs(d *model.Dataset, blocks map[oracleKey][]model.RecordID, maxBlock int) (out []Candidate, cappedBlocks, cappedRecords int) {
	var keys []oracleKey
	for k, blk := range blocks {
		if maxBlock > 0 && len(blk) > maxBlock {
			cappedBlocks++
			cappedRecords += len(blk)
			continue
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].band != keys[j].band {
			return keys[i].band < keys[j].band
		}
		return keys[i].hash < keys[j].hash
	})
	seen := map[model.PairKey]bool{}
	for _, k := range keys {
		blk := blocks[k]
		for i := range blk {
			for _, b := range blk[i+1:] {
				a := blk[i]
				if b < a {
					a, b = b, a
				}
				if a == b || seen[model.MakePairKey(a, b)] {
					continue
				}
				seen[model.MakePairKey(a, b)] = true
				if ra, rb := d.Record(a), d.Record(b); model.GenderCompatible(ra, rb) && ra.Cert != rb.Cert {
					out = append(out, Candidate{A: a, B: b})
				}
			}
		}
	}
	return out, cappedBlocks, cappedRecords
}

// checkAgainstOracle asserts that Pairs emits the oracle's sequence and
// counts the oracle's dropped blocks.
func checkAgainstOracle(t *testing.T, label string, d *model.Dataset, ids []model.RecordID, cfg LSHConfig) []Candidate {
	t.Helper()
	want, wantBlocks, wantRecords := oraclePairs(d, lshBlocks(d, ids, cfg), cfg.MaxBlockSize)
	blocks0, records0 := mCappedBlocks.Value(), mCappedRecords.Value()
	got := NewLSH(cfg).Pairs(d, ids)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Pairs emitted %d pairs, the oracle %d, or in another order", label, len(got), len(want))
	}
	if b, r := mCappedBlocks.Value()-blocks0, mCappedRecords.Value()-records0; b != int64(wantBlocks) || r != int64(wantRecords) {
		t.Fatalf("%s: capped counters moved by %d blocks / %d records, the oracle dropped %d / %d", label, b, r, wantBlocks, wantRecords)
	}
	return got
}

// TestPairsMatchOracle is the differential test of the sort-built,
// statelessly deduplicated emitter against first-wins over a pair table:
// same sequence at DS-3k under both blocking profiles, serial and parallel.
func TestPairsMatchOracle(t *testing.T) {
	d := dataset.GenerateScale(dataset.ScaleTier(3000)).Dataset
	ids := allIDs(d)
	for _, tc := range []struct {
		name string
		cfg  LSHConfig
	}{{"scale", ScaleLSHConfig()}, {"default", DefaultLSHConfig()}} {
		for _, procs := range []int{1, 4} {
			partest.WithProcs(t, procs)
			if got := checkAgainstOracle(t, tc.name, d, ids, tc.cfg); len(got) == 0 {
				t.Fatalf("%s: no pairs", tc.name)
			}
		}
	}
}

// TestBandMaskWidth pins the width of the emitter's per-record band mask:
// 2·Bands bits. `-exp blocking` runs 16 bands (32 with the surname pass,
// past a uint16 or a uint32 shifted by the surname base), 32 is the most
// NewLSH accepts, and more falls back to the default as Bands <= 0 does.
func TestBandMaskWidth(t *testing.T) {
	d := dataset.Generate(dataset.IOS().Scaled(0.05)).Dataset
	ids := allIDs(d)
	for _, bands := range []int{16, 32} {
		cfg := LSHConfig{Bands: bands, Rows: 2, MaxBlockSize: 40}
		if got := checkAgainstOracle(t, "wide", d, ids, cfg); len(got) == 0 {
			t.Fatalf("Bands %d: no pairs", bands)
		}
	}
	if got, want := NewLSH(LSHConfig{Bands: 33, Rows: 2}).cfg, DefaultLSHConfig(); got != want {
		t.Fatalf("NewLSH kept %+v, want the default for more than %d bands", got, maxBands)
	}
}

// nameDataset is one Bm record per (first name, surname), each on its own
// certificate.
func nameDataset(names ...[2]string) *model.Dataset {
	d := &model.Dataset{Name: "fixture"}
	for i, n := range names {
		d.Records = append(d.Records, model.Record{
			ID: model.RecordID(i), Cert: model.CertID(i), Role: model.Bm, Gender: model.Female,
			First: model.Intern(n[0]), Sur: model.Intern(n[1]), Truth: model.NoPerson,
		})
	}
	return d
}

func hasPair(pairs []Candidate, a, b model.RecordID) bool {
	return slices.Contains(pairs, Candidate{A: a, B: b})
}

// TestPairsOracleFixtures runs the oracle comparison over the inputs the
// band-order rule could get wrong.
func TestPairsOracleFixtures(t *testing.T) {
	cfg := DefaultLSHConfig()

	t.Run("only earlier shared block capped", func(t *testing.T) {
		// One pass of two bands over hand-made hashes. Band 0 puts all five
		// records in one block; band 1 splits them into {0,1} and {2,3,4}.
		// At cap 4 the block of five is dropped, and every pair of a band-1
		// block — whose only earlier meeting was in the dropped block — must
		// come out of band 1; at cap 5 band 0 emits all ten and band 1 none.
		d := nameDataset([2]string{"a", "x"}, [2]string{"b", "x"}, [2]string{"c", "x"}, [2]string{"d", "x"}, [2]string{"d", "x"})
		ids := allIDs(d)
		tables := func() []sigTable {
			return []sigTable{{width: 2, sigs: []uint64{1, 5, 1, 5, 1, 9, 1, 9}, row: []int32{0, 1, 2, 3, 3}}}
		}
		for maxBlock, wantPairs := range map[int]int{4: 4, 5: 10} {
			want, _, _ := oraclePairs(d, tableBlocks(ids, tables()), maxBlock)
			var got []Candidate
			emitPairs(d, ids, tables(), maxBlock, 0, func(chunk []Candidate) { got = append(got, chunk...) })
			if !slices.Equal(got, want) || len(got) != wantPairs {
				t.Fatalf("cap %d: got %v, oracle %v, want %d pairs", maxBlock, got, want, wantPairs)
			}
		}
	})

	t.Run("record without surname", func(t *testing.T) {
		d := nameDataset(
			[2]string{"mary", ""}, [2]string{"mary", ""}, [2]string{"mary", "smith"}, [2]string{"marie", "smith"})
		got := checkAgainstOracle(t, "no surname", d, allIDs(d), cfg)
		if !hasPair(got, 0, 1) || !hasPair(got, 2, 3) {
			t.Fatalf("got %v, want the two marys and the two smiths", got)
		}
	})

	t.Run("duplicate ids", func(t *testing.T) {
		smiths := nameDataset(
			[2]string{"mary", "smith"}, [2]string{"mary", "smith"}, [2]string{"anne", "smith"},
			[2]string{"mary", "smith"}, [2]string{"anne", "smith"}, [2]string{"mary", "smith"})
		ids := []model.RecordID{2, 0, 2, 1, 0, 3, 4, 5, 2}
		if got := checkAgainstOracle(t, "duplicates", smiths, ids, cfg); len(got) != 15 {
			t.Fatalf("got %d pairs of six smiths, want all 15", len(got))
		}
		// The repeats count against the cap: nine listed smiths drop every
		// surname block at cap 8, six distinct ones would not.
		c := cfg
		c.MaxBlockSize = 8
		checkAgainstOracle(t, "duplicates, cap 8", smiths, ids, c)
	})

	t.Run("soundex", func(t *testing.T) {
		// The only input of two passes of one band each: a phonetic-style
		// key of first name and surname, then of the surname alone, with
		// initials standing in for the codes. The tables are made by hand,
		// one row per distinct key, and go straight to the emitter.
		d := dataset.Generate(dataset.IOS().Scaled(0.05)).Dataset
		ids := allIDs(d)
		initial := func(v string) string { return v[:min(1, len(v))] }
		blocks := map[oracleKey][]model.RecordID{}
		tables := []sigTable{{width: 1, row: make([]int32, len(ids))}, {width: 1, row: make([]int32, len(ids))}}
		rows := [2]map[string]int32{{}, {}}
		for p, id := range ids {
			rec := d.Record(id)
			sur := initial(rec.Surname())
			for band, key := range []string{initial(rec.FirstName()) + "/" + sur, sur} {
				k := oracleKey{band, fnvHash(key)}
				blocks[k] = append(blocks[k], id)
				r, ok := rows[band][key]
				if !ok {
					r = int32(len(tables[band].sigs))
					rows[band][key] = r
					tables[band].sigs = append(tables[band].sigs, k.hash)
				}
				tables[band].row[p] = r
			}
		}
		want, _, _ := oraclePairs(d, blocks, 60)
		var got []Candidate
		emitPairs(d, ids, tables, 60, 0, func(chunk []Candidate) { got = append(got, chunk...) })
		if len(got) == 0 || !slices.Equal(got, want) {
			t.Fatalf("emitted %d pairs, the oracle %d, or in another order", len(got), len(want))
		}
	})

	t.Run("subset ids", func(t *testing.T) {
		d := dataset.Generate(dataset.IOS().Scaled(0.05)).Dataset
		var ids []model.RecordID
		for i := len(d.Records) - 1; i >= 0; i -= 2 {
			ids = append(ids, model.RecordID(i)) // every other record, descending
		}
		if got := checkAgainstOracle(t, "subset", d, ids, cfg); len(got) == 0 {
			t.Fatal("no pairs in the subset")
		}
	})
}

// TestPairsChunkedFromMatchesFiltered gives the oracle comparison the first
// new position as one more input: PairsChunkedFrom must emit exactly the
// full sequence's pairs whose B is new, in order, and count only the capped
// blocks that hold a new record. The batch past the DS-3k corpus holds a
// record without surname, a one-letter first name and a one-letter surname
// beside corpus names, and one cut makes it the whole batch; both profiles
// run, and the scale profile once more under a cap small enough to drop
// blocks the batch joins.
func TestPairsChunkedFromMatchesFiltered(t *testing.T) {
	d := dataset.GenerateScale(dataset.ScaleTier(3000)).Dataset
	corpus := len(d.Records)
	// A batch record is corpus record i on a certificate of its own, under
	// the given names.
	batch := func(i int, first, sur model.Sym) {
		rec := d.Records[i]
		rec.ID, rec.Cert = model.RecordID(len(d.Records)), model.CertID(len(d.Certificates)+len(d.Records))
		rec.First, rec.Sur = first, sur
		d.Records = append(d.Records, rec)
	}
	batch(3, d.Records[3].First, d.Records[3].Sur)
	batch(0, d.Records[0].First, 0)
	batch(1, model.Intern("j"), d.Records[1].Sur)
	batch(2, d.Records[2].First, model.Intern("q"))
	ids := allIDs(d)
	small := ScaleLSHConfig()
	small.MaxBlockSize = 12
	for _, tc := range []struct {
		name string
		cfg  LSHConfig
	}{{"scale", ScaleLSHConfig()}, {"default", DefaultLSHConfig()}, {"scale, cap 12", small}} {
		full := NewLSH(tc.cfg).Pairs(d, ids)
		blocks := lshBlocks(d, ids, tc.cfg)
		for _, firstNew := range []int{0, corpus * 3 / 4, corpus - 40, corpus, len(d.Records)} {
			var want []Candidate
			for _, c := range full {
				if int(c.B) >= firstNew {
					want = append(want, c)
				}
			}
			wantBlocks, wantRecords := int64(0), int64(0)
			for _, blk := range blocks {
				if len(blk) > tc.cfg.MaxBlockSize && int(slices.Max(blk)) >= firstNew {
					wantBlocks++
					wantRecords += int64(len(blk))
				}
			}
			if tc.cfg.MaxBlockSize == small.MaxBlockSize && firstNew == corpus-40 && wantBlocks == 0 {
				t.Fatalf("%s: the batch joins no capped block; the cap is not exercised", tc.name)
			}
			for _, procs := range []int{1, 4} {
				partest.WithProcs(t, procs)
				blocks0, records0 := mCappedBlocks.Value(), mCappedRecords.Value()
				var got []Candidate
				NewLSH(tc.cfg).PairsChunkedFrom(d, ids, firstNew, func(chunk []Candidate) { got = append(got, chunk...) })
				if !slices.Equal(got, want) {
					t.Fatalf("%s, firstNew %d, procs %d: emitted %d pairs, the filtered sequence %d, or in another order",
						tc.name, firstNew, procs, len(got), len(want))
				}
				if b, r := mCappedBlocks.Value()-blocks0, mCappedRecords.Value()-records0; b != wantBlocks || r != wantRecords {
					t.Fatalf("%s, firstNew %d, procs %d: capped counters moved by %d blocks / %d records, want %d / %d",
						tc.name, firstNew, procs, b, r, wantBlocks, wantRecords)
				}
			}
		}
	}
}
