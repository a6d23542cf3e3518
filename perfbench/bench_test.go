package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"relser/internal/core"
	"relser/internal/metrics"
	"relser/internal/sched"
	"relser/internal/storage"
)

// smallBench is a workload's bench at certification size, so rounds
// take milliseconds.
func smallBench(t *testing.T, name string, seed int64) *bench {
	t.Helper()
	spec, ok := lookupSpec(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	spec.mix = spec.certMix
	heap := startHeapSampler(time.Millisecond)
	t.Cleanup(heap.close)
	b := &bench{spec: spec, seed: seed, tmp: t.TempDir(), heap: heap}
	t.Cleanup(b.close)
	return b
}

// Timing wrappers must not change the run: for one seed, a traced and
// an untraced deterministic run give identical Result counters and
// RetireStats, and the fast path stays on (or off, under the obs plane).
func TestTracedRoundMatchesPlain(t *testing.T) {
	for _, name := range []string{"rsgt-banking", "rsgt-banking-obs"} {
		t.Run(name, func(t *testing.T) {
			b := smallBench(t, name, 3)
			plain := b.runRound(context.Background(), modePlain, 0)
			traced := b.runRound(context.Background(), modeTraced, 0)
			for _, r := range []*round{plain, traced} {
				if r.err != nil {
					t.Fatalf("%s round: %v", r.mode, r.err)
				}
			}
			if plain.counts != traced.counts {
				t.Fatalf("traced round changed the run:\nplain  %+v\ntraced %+v", plain.counts, traced.counts)
			}
			hits := plain.counts.Retire.FastPathHits
			if b.spec.obs && hits != 0 || !b.spec.obs && hits == 0 {
				t.Fatalf("fast-path hits %d with obs=%v", hits, b.spec.obs)
			}
			if traced.traced.peakLive == 0 {
				t.Fatal("traced round saw no live graph vertices")
			}
		})
	}
}

func TestWrappersOfferTheWrappedCapabilities(t *testing.T) {
	s2pl := wrapProtocol(sched.NewS2PL(), newSpanLog(0))
	if _, ok := s2pl.(sched.Retirer); ok {
		t.Error("wrapped S2PL offers sched.Retirer")
	}
	if !sched.IsShardSafe(s2pl) {
		t.Error("wrapped S2PL is not shard-safe")
	}
	rsgt := wrapProtocol(sched.NewRSGT(sched.AbsoluteOracle{}), newSpanLog(0))
	if _, ok := rsgt.(sched.Retirer); !ok {
		t.Error("wrapped RSGT hides sched.Retirer")
	}
	if sched.IsShardSafe(rsgt) {
		t.Error("wrapped RSGT claims to be shard-safe")
	}

	wal, err := storage.NewShardedWAL(storage.NewMemBackend(), storage.SegmentedOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	reg := metrics.NewRegistry()
	setMetrics(&timedWAL{inner: wal, log: newSpanLog(0)}, reg)
	if err := wal.AppendSync(storage.WALRecord{Kind: storage.WALBegin, Instance: 1}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("wal.appends").Value(); n != 1 {
		t.Fatalf("wal.appends = %d after one append through a wrapped SetMetrics", n)
	}
}

// A durable round recovers its WAL to the final store, traced or not,
// and the traced one sees the WAL's bytes and fsyncs.
func TestDurableRoundsRecover(t *testing.T) {
	b := smallBench(t, "s2pl-durable-transfers", 5)
	for _, mode := range []roundMode{modePlain, modeTraced} {
		r := b.runRound(context.Background(), mode, 0)
		if r.err != nil {
			t.Fatalf("%s round: %v", mode, r.err)
		}
		if r.fsyncs == 0 || len(r.recoveries) != 1 {
			t.Fatalf("%s round: %d fsyncs, %d recoveries", mode, r.fsyncs, len(r.recoveries))
		}
		if mode == modeTraced {
			if r.traced.walBytes == 0 || r.traced.times.p50[kindWALFsync] == 0 {
				t.Fatalf("traced round saw %d WAL bytes, fsync p50 %v", r.traced.walBytes, r.traced.times.p50[kindWALFsync])
			}
			if e := accountingError(r.traced.times); e > accountingTolerance {
				t.Fatalf("accounting error %v", e)
			}
		}
	}
}

// The accounting check catches spans that double count: a WAL call
// recorded as a root inside an Apply on the one driver goroutine.
func TestAccountingCatchesOverlap(t *testing.T) {
	l := newSpanLog(0)
	l.spans = []span{
		{kind: kindApply, start: 0, end: 100, parent: -1, group: 1},
		{kind: kindWALAppend, start: 10, end: 60, parent: 0, group: 1},
	}
	if e := accountingError(l.account(0, 200, 1)); e != 0 {
		t.Fatalf("nested spans: accounting error %v", e)
	}
	l.spans[1].parent = -1
	if e := accountingError(l.account(0, 200, 1)); e < 0.2 {
		t.Fatalf("overlapping roots: accounting error %v, want 0.25", e)
	}
}

// BENCHMARK.json names exactly the workloads and metrics the program
// runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, specs[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
	}
}

// The latency store keeps each instance's latest finished rounds and
// takes the fast quartile of every program's latencies over them.
func TestLatencyStoreKeepsLatestRounds(t *testing.T) {
	programs := []*core.Transaction{core.T(1, core.R("x")), core.T(2, core.R("y"))}
	s, err := newLatencyStore(3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	for round := 1; round <= keptRounds+2; round++ {
		pos, table, err := s.claim(0, programs)
		if err != nil {
			t.Fatal(err)
		}
		table[1], table[2] = int64(100*round), 1000
		s.keep(0, pos)
	}
	// A round that never finishes takes the oldest position (round 3's)
	// and does not count.
	if _, table, _ := s.claim(0, programs); table[1] != 0 {
		t.Fatalf("claimed position not cleared: %v", table)
	} else {
		table[1] = 1
	}
	// Rounds 4..9 remain: the fast quartile of 400..900 is 525.
	if got := s.fastest(0); len(got) != 2 || got[0] != 525 || got[1] != 1000 {
		t.Fatalf("fastest = %v, want [525 1000]", got)
	}
	if got := s.fastest(1); len(got) != 0 {
		t.Fatalf("an instance without rounds has latencies %v", got)
	}
}

// windowedTPS adds up each window's fast quartile over the rounds.
func TestWindowedTPS(t *testing.T) {
	slow := &round{counts: counts{Committed: 2 * commitWindow}, marks: []int64{100, 400}, wall: 500}
	fast := &round{counts: counts{Committed: 2 * commitWindow}, marks: []int64{100, 200}, wall: 300}
	// The slow round's 300 ns second window drops out: three windows of
	// 100 ns.
	got := windowedTPS([]*round{slow, fast, fast})
	if want := 2 * commitWindow / 300e-9; got < want*0.999 || got > want*1.001 {
		t.Fatalf("windowedTPS = %v, want %v", got, want)
	}
}
