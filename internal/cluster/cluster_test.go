package cluster

import (
	"fmt"
	"testing"

	"odh"
	"odh/internal/model"
)

func newCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := NewReplicated(Options{Nodes: n, Node: odh.Options{BatchSize: 8, GroupSize: 4}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// primary returns node i's primary historian — the first copy of shard i,
// which lives on node i.
func primary(c *Cluster, i int) *odh.Historian { return c.shards[i][0].h.Load() }

func setup(t *testing.T, c *Cluster, nSources int) {
	t.Helper()
	if err := c.CreateSchema(model.SchemaType{
		Name: "vehicle",
		Tags: []model.TagDef{{Name: "speed"}, {Name: "fuel"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateVirtualTable("vehicle_v", "vehicle"); err != nil {
		t.Fatal(err)
	}
	if err := c.ExecAll(`CREATE TABLE fleet (id BIGINT, depot VARCHAR(8))`); err != nil {
		t.Fatal(err)
	}
	schema, _ := c.Schema("vehicle")
	for i := 1; i <= nSources; i++ {
		if err := c.RegisterSource(model.DataSource{
			ID: int64(i), SchemaID: schema.ID, Regular: true, IntervalMs: 100,
		}); err != nil {
			t.Fatal(err)
		}
		depot := "north"
		if i%2 == 0 {
			depot = "south"
		}
		if err := c.ExecAll(fmt.Sprintf(`INSERT INTO fleet VALUES (%d, '%s')`, i, depot)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWriteRoutingAndScatterQuery(t *testing.T) {
	c := newCluster(t, 3)
	setup(t, c, 12)
	for src := int64(1); src <= 12; src++ {
		for j := 0; j < 20; j++ {
			if err := c.Write(model.Point{Source: src, TS: int64(1000 + j*100), Values: []float64{float64(j), 50}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Data must be spread over more than one node.
	withData := 0
	for i := 0; i < c.Nodes(); i++ {
		if primary(c, i).TotalStats().PointsWritten > 0 {
			withData++
		}
	}
	if withData < 2 {
		t.Fatalf("data on %d nodes, want >= 2", withData)
	}
	// Scatter-gather: historical query for one source.
	res, err := c.Query(`SELECT * FROM vehicle_v WHERE id = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("historical rows = %d, want 20", len(res.Rows))
	}
	// Slice query across all sources.
	res, err = c.Query(`SELECT * FROM vehicle_v WHERE timestamp BETWEEN 1000 AND 1500`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12*6 {
		t.Fatalf("slice rows = %d, want 72", len(res.Rows))
	}
}

func TestFusedQueryAcrossCluster(t *testing.T) {
	c := newCluster(t, 2)
	setup(t, c, 8)
	for src := int64(1); src <= 8; src++ {
		for j := 0; j < 10; j++ {
			c.Write(model.Point{Source: src, TS: int64(j * 100), Values: []float64{float64(src), 1}})
		}
	}
	c.Flush()
	res, err := c.Query(`SELECT speed FROM vehicle_v v, fleet f WHERE v.id = f.id AND f.depot = 'north'`)
	if err != nil {
		t.Fatal(err)
	}
	// 4 north vehicles x 10 points.
	if len(res.Rows) != 40 {
		t.Fatalf("fused rows = %d, want 40", len(res.Rows))
	}
	for _, r := range res.Rows {
		if int(r[0].AsFloat())%2 == 0 {
			t.Fatalf("south vehicle leaked: %v", r[0])
		}
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewReplicated(Options{}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	c := newCluster(t, 2)
	c.CreateSchema(model.SchemaType{Name: "s", Tags: []model.TagDef{{Name: "a"}}})
	schema, _ := c.Schema("s")
	if err := c.RegisterSource(model.DataSource{SchemaID: schema.ID}); err == nil {
		t.Fatal("auto-id source accepted in cluster mode")
	}
}

func TestRoutingIsStable(t *testing.T) {
	c := newCluster(t, 4)
	for src := int64(1); src < 100; src++ {
		a := c.shardOf(src)
		b := c.shardOf(src)
		if a != b {
			t.Fatal("routing not deterministic")
		}
	}
	// Reasonably balanced.
	counts := map[int]int{}
	for src := int64(1); src <= 1000; src++ {
		counts[c.shardOf(src)]++
	}
	for _, n := range counts {
		if n < 150 || n > 350 {
			t.Fatalf("unbalanced routing: %v", counts)
		}
	}
}
