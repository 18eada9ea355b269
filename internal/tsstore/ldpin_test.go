package tsstore_test

import (
	"testing"
	"time"

	"odh/internal/catalog"
	"odh/internal/iotx"
	"odh/internal/model"
	"odh/internal/pagestore"
	"odh/internal/tsstore"
)

// TestLDIngestPinned pins what LD ingest writes: a seeded stream of 500
// low-frequency stations, each sample 0.7–1.3 mean intervals of 23 s after
// the station's last, written in frames of 150 points into groups of 128,
// then a checkpoint. A member that samples twice inside one group window
// joins the group's next row instead of writing a one-point per-source
// record, so no per-source record is written at all, and the MG records'
// count and ValueBlob bytes are exact: they move only with the MG ingest
// rule or the blob format, which must update them.
func TestLDIngestPinned(t *testing.T) {
	const (
		sensors = 500
		points  = 40_000
		frame   = 150
		// The MG records the stream flushes and their ValueBlob bytes.
		wantRecords = 379
		wantBytes   = 1_815_273
	)
	page, err := pagestore.Open(pagestore.NewMemFile(), pagestore.Options{PoolPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer page.Close()
	cat, err := catalog.Open(page, tsstore.DefaultBatchSize)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tsstore.Open(page, cat, tsstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	schema := iotx.LDSchema(0, 0)
	sc, err := cat.CreateSchemaType(schema.Name, schema.Tags)
	if err != nil {
		t.Fatal(err)
	}
	gen := iotx.NewLDGen(iotx.LDConfig{I: 1, SensorUnit: sensors, MeanIntervalMs: 23_000, Duration: 10_000 * time.Hour, Seed: 1 + 7919})
	var srcs []model.DataSource
	for _, id := range gen.SensorIDs() {
		srcs = append(srcs, model.DataSource{ID: id, SchemaID: sc.ID, IntervalMs: 23_000})
	}
	if _, err := cat.RegisterSources(srcs); err != nil {
		t.Fatal(err)
	}
	batch := make([]model.Point, 0, frame)
	for n := 0; n < points; n++ {
		p, _ := gen.Next()
		if batch = append(batch, p); len(batch) == frame || n == points-1 {
			if err := st.WriteBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	rts, irts, mg := st.TreeSizes()
	bytes := st.BlobBytesTotal()
	perPoint := float64(bytes) / points
	t.Logf("%d MG records, %d ValueBlob bytes (%.1f a point)", mg, bytes, perPoint)
	if rts+irts != 0 {
		t.Errorf("%d per-source records written, want none", rts+irts)
	}
	if mg != wantRecords || bytes != wantBytes {
		t.Errorf("%d MG records of %d ValueBlob bytes, pinned %d of %d", mg, bytes, wantRecords, wantBytes)
	}
	if perPoint > 50 {
		t.Errorf("%.1f B of ValueBlob a point, want at most 50", perPoint)
	}
}
