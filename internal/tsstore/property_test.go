package tsstore

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"odh/internal/model"
)

// refPoint mirrors a written point in the reference model.
type refPoint struct {
	source int64
	ts     int64
	values []float64
}

// TestRandomizedAgainstReferenceModel drives the store with a random mix
// of RTS, IRTS, and MG sources, random flushes and reorganizations, then
// checks every historical scan and a set of slice scans against a plain
// in-memory reference.
func TestRandomizedAgainstReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(string(rune('a'+seed)), func(t *testing.T) {
			runReferenceTrial(t, seed)
		})
	}
}

func runReferenceTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	f := newFixture(t, Config{BatchSize: 4 + rng.Intn(12), maxOpenMGRows: 1 + rng.Intn(4)}, 2+rng.Intn(4))
	ntags := 1 + rng.Intn(3)
	schema := f.schema(t, "ref", ntags)

	// A mixed fleet: fast regular, fast irregular, slow (MG) sources.
	type srcState struct {
		ds     *model.DataSource
		nextTS int64
	}
	var sources []*srcState
	for i := 0; i < 6; i++ {
		var ds *model.DataSource
		switch i % 3 {
		case 0:
			ds = f.source(t, schema.ID, true, 10) // RTS
		case 1:
			ds = f.source(t, schema.ID, false, 25) // IRTS
		default:
			ds = f.source(t, schema.ID, true, 5000) // MG
		}
		sources = append(sources, &srcState{ds: ds, nextTS: 1_000_000})
	}

	type refKey struct{ src, ts int64 }
	ref := map[refKey]refPoint{} // latest point per (source, ts)
	var maxTS int64
	for op := 0; op < 600; op++ {
		switch rng.Intn(20) {
		case 0:
			if err := f.store.Flush(); err != nil {
				t.Fatal(err)
			}
			continue
		case 1:
			if maxTS > 0 {
				cut := 1_000_000 + rng.Int63n(maxTS-1_000_000+1)
				if _, err := f.store.Reorganize(schema.ID, cut); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		st := sources[rng.Intn(len(sources))]
		vals := make([]float64, ntags)
		for j := range vals {
			if rng.Intn(4) == 0 {
				vals[j] = model.NullValue
			} else {
				vals[j] = math.Round(rng.Float64()*1000) / 4 // exact in float64
			}
		}
		p := model.Point{Source: st.ds.ID, TS: st.nextTS, Values: vals}
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
		ref[refKey{p.Source, p.TS}] = refPoint{p.Source, p.TS, vals}
		if p.TS > maxTS {
			maxTS = p.TS
		}
		if st.ds.Regular && st.ds.IngestStructure() == model.RTS {
			st.nextTS += st.ds.IntervalMs
		} else {
			st.nextTS += st.ds.IntervalMs/2 + rng.Int63n(st.ds.IntervalMs)
		}
	}

	// Historical scans per source over random windows (including open).
	for _, st := range sources {
		for trial := 0; trial < 3; trial++ {
			t1 := int64(1_000_000) + rng.Int63n(maxTS-999_999)
			t2 := t1 + rng.Int63n(maxTS-t1+2)
			if trial == 0 {
				t1, t2 = math.MinInt64, math.MaxInt64
			}
			it, err := f.store.HistoricalScan(st.ds.ID, t1, t2, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := collect(t, it)
			var want []refPoint
			for _, rp := range ref {
				if rp.source == st.ds.ID && rp.ts >= t1 && rp.ts < t2 {
					want = append(want, rp)
				}
			}
			sort.Slice(want, func(a, b int) bool { return want[a].ts < want[b].ts })
			if len(got) != len(want) {
				t.Fatalf("source %d window [%d,%d): got %d points, want %d",
					st.ds.ID, t1, t2, len(got), len(want))
			}
			for i := range want {
				if got[i].TS != want[i].ts {
					t.Fatalf("source %d: ts[%d] = %d, want %d", st.ds.ID, i, got[i].TS, want[i].ts)
				}
				for j := range want[i].values {
					a, b := want[i].values[j], got[i].Values[j]
					if model.IsNull(a) != model.IsNull(b) || (!model.IsNull(a) && a != b) {
						t.Fatalf("source %d ts %d tag %d: got %v, want %v",
							st.ds.ID, got[i].TS, j, b, a)
					}
				}
			}
		}
	}

	// Slice scans across the schema.
	for trial := 0; trial < 4; trial++ {
		t1 := int64(1_000_000) + rng.Int63n(maxTS-999_999)
		t2 := t1 + rng.Int63n(maxTS-t1+2)
		it, err := f.store.SliceScanOpts(schema.ID, t1, t2, nil, ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, it)
		wantCount := 0
		for _, rp := range ref {
			if rp.ts >= t1 && rp.ts < t2 {
				wantCount++
			}
		}
		if len(got) != wantCount {
			t.Fatalf("slice [%d,%d): got %d, want %d", t1, t2, len(got), wantCount)
		}
	}
}
