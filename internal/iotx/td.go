// Package iotx implements the IoT-X benchmark of §5 of the paper: the two
// dataset series (TD, derived from a simplified TPC-E; LD, derived from
// the Linked Sensor Dataset), the write workload suite WS1, the read
// workload suite WS2 with query templates TQ1–TQ4 and LQ1–LQ4, and the
// experiment drivers that regenerate every table and figure of the
// paper's evaluation at configurable scale.
package iotx

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"odh/internal/model"
)

// TDConfig parameterizes one TD(i, j) dataset. The paper's full scale is
// AccountUnit=1000, FreqUnitHz=20, Duration=1h; benchmarks run reduced
// scales and record them in EXPERIMENTS.md.
type TDConfig struct {
	// I scales the number of data sources: accounts = I * AccountUnit.
	I int
	// J scales the per-account trade frequency: J * FreqUnitHz.
	J int
	// AccountUnit is the paper's 1000-account step.
	AccountUnit int
	// FreqUnitHz is the paper's 20 Hz step.
	FreqUnitHz float64
	// Duration is the simulated dataset length (paper: 1 hour).
	Duration time.Duration
	// StartTS is the first trade timestamp in Unix milliseconds.
	StartTS int64
	// Seed makes generation reproducible.
	Seed int64
}

func (c TDConfig) withDefaults() TDConfig {
	if c.I <= 0 {
		c.I = 1
	}
	if c.J <= 0 {
		c.J = 1
	}
	if c.AccountUnit <= 0 {
		c.AccountUnit = 1000
	}
	if c.FreqUnitHz <= 0 {
		c.FreqUnitHz = 20
	}
	if c.Duration <= 0 {
		c.Duration = time.Hour
	}
	if c.StartTS == 0 {
		c.StartTS = 1_400_000_000_000
	}
	return c
}

// Accounts returns the number of data sources (customer accounts).
func (c TDConfig) Accounts() int { return c.I * c.AccountUnit }

// Customers returns the number of customers (the paper's EGen produces an
// average of five accounts per customer, with its load unit lowered from
// 1000 to 200 customers per 1000 accounts).
func (c TDConfig) Customers() int {
	return max(1, c.Accounts()/5)
}

// FreqHz returns the per-account trade frequency.
func (c TDConfig) FreqHz() float64 { return float64(c.J) * c.FreqUnitHz }

// Label names the dataset like the paper: TD(i, j).
func (c TDConfig) Label() string { return fmt.Sprintf("TD(%d,%d)", c.I, c.J) }

// TDTagNames are the operational tags of the Trade schema, matching the
// paper's simplified Trade table (T_DTS and T_CA_ID are the timestamp and
// id columns of the virtual table).
var TDTagNames = []string{"T_TRADE_PRICE", "T_CHRG", "T_COMM", "T_TAX"}

// TDSchema returns the schema type for TD operational data.
func TDSchema() model.SchemaType {
	tags := make([]model.TagDef, len(TDTagNames))
	for i, n := range TDTagNames {
		tags[i] = model.TagDef{Name: n}
	}
	return model.SchemaType{Name: "trade", IDName: "T_CA_ID", TSName: "T_DTS", Tags: tags}
}

// CustomerRow is one row of the simplified TPC-E Customer table.
type CustomerRow struct {
	CID   int64
	LName string
	FName string
	Tier  int64
	DOB   int64 // Unix ms
}

// AccountRow is one row of the simplified Customer_Account table.
type AccountRow struct {
	CAID int64
	CCID int64
	Name string
	Bal  float64
}

// TDGen generates one TD dataset: relational seed rows plus a
// time-ordered stream of trade records.
type TDGen struct {
	cfg    TDConfig
	rng    *rand.Rand
	prices []float64 // per-account price walk
	events eventHeap
	endTS  int64
}

// NewTDGen builds a generator for cfg.
func NewTDGen(cfg TDConfig) *TDGen {
	cfg = cfg.withDefaults()
	g := &TDGen{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed + 1)),
		prices: make([]float64, cfg.Accounts()+1),
		endTS:  cfg.StartTS + cfg.Duration.Milliseconds(),
	}
	interval := 1000 / cfg.FreqHz() // ms between trades per account
	for acct := 1; acct <= cfg.Accounts(); acct++ {
		g.prices[acct] = 20 + g.rng.Float64()*180
		first := cfg.StartTS + int64(g.rng.Float64()*interval)
		heap.Push(&g.events, event{ts: first, source: int64(acct)})
	}
	return g
}

// Config returns the generator's (defaulted) configuration.
func (g *TDGen) Config() TDConfig { return g.cfg }

// Customers returns the relational customer rows.
func (g *TDGen) Customers() []CustomerRow {
	rng := rand.New(rand.NewSource(g.cfg.Seed + 2))
	lnames := []string{"Smith", "Jones", "Chen", "Garcia", "Kim", "Patel", "Olsen", "Nakamura"}
	fnames := []string{"Al", "Bo", "Cy", "Di", "Ed", "Fay", "Gil", "Hua"}
	out := make([]CustomerRow, g.cfg.Customers())
	for i := range out {
		out[i] = CustomerRow{
			CID:   int64(i + 1),
			LName: lnames[rng.Intn(len(lnames))],
			FName: fnames[rng.Intn(len(fnames))],
			Tier:  int64(1 + rng.Intn(3)),
			// Dates of birth spread over 1950-2000.
			DOB: time.Date(1950+rng.Intn(50), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC).UnixMilli(),
		}
	}
	return out
}

// Accounts returns the relational account rows; account k belongs to
// customer (k-1)/5 + 1.
func (g *TDGen) Accounts() []AccountRow {
	rng := rand.New(rand.NewSource(g.cfg.Seed + 3))
	nCust := int64(g.cfg.Customers())
	out := make([]AccountRow, g.cfg.Accounts())
	for i := range out {
		caid := int64(i + 1)
		ccid := (caid-1)/5 + 1
		if ccid > nCust {
			ccid = nCust
		}
		out[i] = AccountRow{
			CAID: caid,
			CCID: ccid,
			Name: fmt.Sprintf("acct_%06d", caid),
			Bal:  float64(rng.Intn(1_000_000)) / 100,
		}
	}
	return out
}

// Next streams the next trade in global timestamp order; ok is false when
// the dataset's duration is exhausted.
func (g *TDGen) Next() (model.Point, bool) {
	for g.events.Len() > 0 {
		ev := heap.Pop(&g.events).(event)
		if ev.ts >= g.endTS {
			continue // this account is done
		}
		// Schedule the account's next trade with ±50% jitter (trades are
		// irregular: IoT-X's TD datasets exercise the IRTS structure).
		interval := 1000 / g.cfg.FreqHz()
		next := ev.ts + int64(interval*(0.5+g.rng.Float64()))
		if next <= ev.ts {
			next = ev.ts + 1
		}
		heap.Push(&g.events, event{ts: next, source: ev.source})

		// Price random walk; charge/commission/tax from small menus.
		g.prices[ev.source] *= 1 + (g.rng.Float64()-0.5)*0.002
		price := g.prices[ev.source]
		return model.Point{
			Source: ev.source,
			TS:     ev.ts,
			Values: []float64{
				price,
				[]float64{0.25, 0.5, 1.0}[g.rng.Intn(3)],
				price * 0.001,
				price * 0.0005,
			},
		}, true
	}
	return model.Point{}, false
}

// event is one pending record emission.
type event struct {
	ts     int64
	source int64
}

// eventHeap is a min-heap on timestamp (ties by source for determinism).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].ts != h[j].ts {
		return h[i].ts < h[j].ts
	}
	return h[i].source < h[j].source
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}
