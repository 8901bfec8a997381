package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestCommittedBenchFiles is the regression gate on the committed
// BENCH files' machine-independent columns: each decodes strictly into
// the one row type, holds only its own experiment's rows, and passes
// the check rosbench runs before it writes JSON. No wall-clock value
// is gated.
func TestCommittedBenchFiles(t *testing.T) {
	files := map[string]string{
		"BENCH_commit.json": "e11",
		"BENCH_server.json": "e12",
		"BENCH_rep.json":    "e13",
		"BENCH_shard.json":  "e14",
		"BENCH_read.json":   "e16",
	}
	for name, exp := range files {
		b, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var rows []row
		if err := dec.Decode(&rows); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) == 0 {
			t.Fatalf("%s: no rows", name)
		}
		for i, r := range rows {
			if r.Experiment != exp {
				t.Errorf("%s row %d: experiment %q, want %q", name, i, r.Experiment, exp)
			}
			if r.Ops <= 0 || r.Seconds <= 0 || r.OpsPerSec <= 0 {
				t.Errorf("%s row %d: ops %d over %vs at %v/s", name, i, r.Ops, r.Seconds, r.OpsPerSec)
			}
			if err := checkRow(r); err != nil {
				t.Errorf("%s row %d: %v", name, i, err)
			}
		}
	}
}

// TestLiveRowsPassCheck runs tiny live E11 serial and E14 cross-shard
// measurements (the meter's trace cross-check included) and holds them
// to the same check as the committed files.
func TestLiveRowsPassCheck(t *testing.T) {
	rows := []row{
		e11Run(core.BackendSimple, 1, 3),
		e11Run(core.BackendHybrid, 1, 3),
		e14Cross(4, 1, 2),
		e14Cross(4, 2, 2),
		e14Cross(4, 4, 2),
	}
	for _, r := range rows {
		if err := checkRow(r); err != nil {
			t.Error(err)
		}
	}
	// The check must bind: a serial commit at 4 forces and a span-s
	// commit at 2s+2 are what it enforced above.
	if rows[0].ForcesPerOp != 4 || rows[4].ForcesPerOp != 10 {
		t.Fatalf("forces/op: e11 serial %v, e14 span 4 %v", rows[0].ForcesPerOp, rows[4].ForcesPerOp)
	}
}

// TestCheckRowRejects: each machine-independent rule fails a row that
// breaks it.
func TestCheckRowRejects(t *testing.T) {
	bad := []row{
		{Experiment: "e11", Mode: "hybrid", Clients: 1, Ops: 8, ForcesPerOp: 3},
		{Experiment: "e12", Mode: "served", Clients: 1, Ops: 8, ForcesPerOp: 5, Speedup: 1},
		{Experiment: "e14", Mode: "cross-shard", Clients: 1, Span: 2, Ops: 8, ForcesPerOp: 4},
		{Experiment: "e16", Mode: "mixed-idx", Clients: 16, Ops: 8, IdxHits: 7, IdxMisses: 1},
		{Experiment: "e16", Mode: "get-idx", Clients: 16, Ops: 8, IdxHits: 8, ForcesPerOp: 0.125},
		{Experiment: "e16", Mode: "get-invoke", Clients: 16, Ops: 8, Speedup: 1.5},
		{Experiment: "e14", Mode: "disjoint", Clients: 2, Shards: 1, Span: 1, Ops: 8},
	}
	for _, r := range bad {
		if checkRow(r) == nil {
			t.Errorf("checkRow accepted %+v", r)
		}
	}
}
