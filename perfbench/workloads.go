package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"relser/internal/obs"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/txn"
	"relser/internal/workload"
)

// bankSpec is one benchmark workload: the banking mix a round runs,
// how it runs it, and the smaller mix the certification leg runs.
type bankSpec struct {
	name string
	why  string
	// mix is one round's programs; certMix is the same shape at a size
	// Theorem-1 certification can afford (its cost is superlinear).
	mix, certMix workload.BankingConfig
	protocol     string
	// concurrent selects the goroutine driver with mpl workers; without
	// it the deterministic driver runs logical MPL mpl on one goroutine.
	concurrent bool
	mpl        int
	obs        bool // attach the default sampled obs.Plane
	durable    bool // log to a 1-lane segmented WAL on real files
}

// rsgtMix is the paper's §1 banking mix with rows far outnumbering the
// eight clients: customer transfers, crossing credit audits over four
// families each, and one bank audit.
var rsgtMix = workload.BankingConfig{
	Families: 1024, AccountsPerFamily: 3, Customers: 8000,
	CreditAudits: 200, FamiliesPerAudit: 4, CrossingAudits: true,
	BankAudits: 1, InitialBalance: 100,
}

var rsgtCertMix = workload.BankingConfig{
	Families: 64, AccountsPerFamily: 3, Customers: 256,
	CreditAudits: 6, FamiliesPerAudit: 4, CrossingAudits: true,
	BankAudits: 1, InitialBalance: 100,
}

var specs = []bankSpec{
	{
		name:     "rsgt-banking",
		why:      "sched + graph and the engine's driver do nearly all the work, the WAL none",
		mix:      rsgtMix,
		certMix:  rsgtCertMix,
		protocol: "rsgt",
		mpl:      8,
	},
	{
		name:     "rsgt-banking-obs",
		why:      "the same run with the default sampled obs plane attached, as every process serving /metrics runs",
		mix:      rsgtMix,
		certMix:  rsgtCertMix,
		protocol: "rsgt",
		mpl:      8,
		obs:      true,
	},
	{
		name: "s2pl-durable-transfers",
		why:  "write-only transfers under S2PL on 2 workers; the group-commit WAL does most of the work",
		mix: workload.BankingConfig{
			Families: 1024, AccountsPerFamily: 3, Customers: 2000, InitialBalance: 100,
		},
		certMix: workload.BankingConfig{
			Families: 256, AccountsPerFamily: 3, Customers: 512, InitialBalance: 100,
		},
		protocol:   "s2pl",
		concurrent: true,
		mpl:        2,
		durable:    true,
	},
}

func lookupSpec(name string) (bankSpec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return bankSpec{}, false
}

// roundMode selects what a round attaches besides the workload itself.
type roundMode int

const (
	modePlain  roundMode = iota // the workload as configured, untraced
	modeTraced                  // plus the timing wrappers and per-operation hooks
	modeBare                    // the obs workload without its plane: the obs-overhead baseline
	modeLogged                  // a WAL-less workload logged to the WAL, for the recovery leg
)

func (m roundMode) String() string {
	return [...]string{"plain", "traced", "bare", "logged"}[m]
}

// The recovery leg logs the first recoveryInstances workload instances
// once, before the measured rounds, and recovers their WALs in turn
// after every cycle; the rounds of a durable workload recover theirs
// once each. (A logged RSGT round fsyncs every commit on the one
// driver goroutine, so it costs about a second.)
const recoveryInstances = 2

// round is one run of the workload's programs through the public entry
// point, with what was measured around it. It keeps only figures, no
// run state: whatever the rounds retain would raise the GC's heap goal
// for every round after them.
type round struct {
	mode     roundMode
	sub      int // index of the sub-seed the round ran
	programs int
	counts   counts
	err      error

	setup    time.Duration // workload build, protocol, WAL and plane construction
	wall     time.Duration // the run itself
	mallocs  uint64
	heapPeak uint64
	// Admit-to-commit latency percentiles in ns, over latencyN commits
	// (a plain round of the deterministic driver keeps the latencies
	// themselves in the latency store); marks are the times of every
	// commitWindow-th commit, in ns from the start.
	latencyP50, latencyP99 float64
	latencyN               int
	marks                  []int64

	recoveries []time.Duration // ReadWALDir + RecoverSegmented, when logged
	fsyncs     int64
	// wal is a logged round's WAL until the recovery leg is done with it.
	wal *loggedWAL

	obsEvents uint64
	obsSpans  int64

	traced *tracedFigures // traced rounds
}

// loggedWAL is a WAL directory with the store recovering it must
// reproduce.
type loggedWAL struct {
	dir     string
	initial map[string]storage.Value
	want    *storage.Store
}

// counts are a run's Result counters, which repeat exactly on the
// deterministic driver for one seed.
type counts struct {
	Committed, Aborts, Restarts, Blocks, CommitWaits, Ops, Ticks int
	Retire                                                       sched.RetireStats
}

func countsOf(res *txn.Result) counts {
	return counts{
		Committed: res.Committed, Aborts: res.Aborts, Restarts: res.Restarts, Blocks: res.Blocks,
		CommitWaits: res.CommitWaits, Ops: res.OpsExecuted, Ticks: res.Ticks, Retire: res.Retire,
	}
}

// tracedFigures is what a traced round's spans and wrappers measured.
type tracedFigures struct {
	times     layerTimes
	peakLive  int
	decisions [3]int64 // indexed by sched.Decision
	walBytes  int64
}

// bench runs one workload for one seed. The seed stands for subSeeds
// workload instances, so that one run averages over several draws of
// the mix instead of resting on one.
type bench struct {
	spec bankSpec
	seed int64
	tmp  string // parent of the rounds' WAL directories
	heap *heapSampler
	// lats holds the plain rounds' latencies, made by the first of them.
	lats *latencyStore
	// lastLog holds the latest traced round's spans until they are
	// written out.
	lastLog *spanLog
}

// close releases the latency store.
func (b *bench) close() {
	if b.lats != nil {
		b.lats.close()
		b.lats = nil
	}
}

// loadGoroutines is how many goroutines drive the load: the concurrent
// driver's workers, or the deterministic driver's one.
func (b *bench) loadGoroutines() int {
	if b.spec.concurrent {
		return b.spec.mpl
	}
	return 1
}

// subSeeds is the number of workload instances one seed stands for.
const subSeeds = 16

// subSeed is the seed of the seed's sub-th workload instance.
func (b *bench) subSeed(sub int) int64 { return b.seed*subSeeds + int64(sub) }

// runRound builds the sub-th workload instance and runs it once.
func (b *bench) runRound(ctx context.Context, mode roundMode, sub int) *round {
	r := &round{mode: mode, sub: sub}
	seed := b.subSeed(sub)
	runtime.GC()
	setupStart := time.Now()
	w, err := workload.Banking(b.spec.mix, seed)
	if err != nil {
		r.err = err
		return r
	}
	r.programs = len(w.Programs)
	proto, err := sched.NewProtocol(b.spec.protocol, w.Oracle)
	if err != nil {
		r.err = err
		return r
	}
	opts := workload.RunOptions{Seed: seed, MPL: b.spec.mpl, Concurrent: b.spec.concurrent}
	var log *spanLog
	if mode == modeTraced {
		log = newSpanLog(8 * len(w.Programs))
		proto = wrapProtocol(proto, log)
	}
	var (
		wal *storage.ShardedWAL
		dir string
	)
	if b.spec.durable || mode == modeLogged {
		dir, err = os.MkdirTemp(b.tmp, "wal-")
		if err != nil {
			r.err = err
			return r
		}
		if mode != modeLogged {
			defer os.RemoveAll(dir)
		}
		var backend storage.SegmentBackend = storage.NewDirBackend(dir)
		if log != nil {
			backend = &timedBackend{SegmentBackend: backend, log: log}
		}
		wal, err = storage.NewShardedWAL(backend, storage.SegmentedOptions{Shards: 1})
		if err != nil {
			r.err = err
			return r
		}
		defer wal.Close()
		opts.WAL = wal
		if log != nil {
			opts.WAL = &timedWAL{inner: wal, log: log}
		}
	}
	var plane *obs.Plane
	if b.spec.obs && mode != modeBare {
		plane = obs.New(obs.Options{})
		opts.Obs = plane
	}
	r.setup = time.Since(setupStart)

	var table []int64
	pos := -1
	if mode == modePlain && !b.spec.concurrent {
		if b.lats == nil {
			if b.lats, err = newLatencyStore(maxProgramID(w.Programs) + 1); err != nil {
				r.err = err
				return r
			}
		}
		if pos, table, err = b.lats.claim(sub, w.Programs); err != nil {
			r.err = err
			return r
		}
	}
	lat := newLatencyRecorder(w.Programs, table)
	opts.Hooks = lat.hooks()
	if log != nil {
		opts.Hooks = log.hooks(opts.Hooks)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.heap.reset()
	var runStart int64
	if log != nil {
		runStart = log.now()
	}
	lat.start()
	res, store, err := w.RunWithContext(ctx, proto, opts)
	r.wall = lat.elapsed()
	var runEnd int64
	if log != nil {
		runEnd = log.now()
	}
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - mallocs
	// The live heap grows with the result until the run returns, and
	// the GC-paced samples may miss its top: measure it once more with
	// the result and store still held.
	runtime.GC()
	b.heap.sample()
	runtime.KeepAlive(res)
	runtime.KeepAlive(store)
	r.heapPeak = b.heap.peak.Load()
	if err != nil {
		r.err = err
		return r
	}
	r.counts = countsOf(res)
	latencies := lat.latencies()
	r.latencyP50, r.latencyP99 = percentile(latencies, 50), percentile(latencies, 99)
	r.latencyN = len(latencies)
	r.marks = lat.marks
	if log != nil {
		r.traced = log.figures(runStart, runEnd, b.loadGoroutines())
		b.lastLog = log
	}
	if res.Committed != r.programs {
		r.err = fmt.Errorf("%d of %d programs committed", res.Committed, r.programs)
		return r
	}
	if plane != nil {
		r.obsEvents = plane.Recorder().Recorded()
		r.obsSpans = plane.Registry().Counter("obs.spans_completed").Value()
	}
	if wal != nil {
		if err := wal.Close(); err != nil {
			r.err = fmt.Errorf("closing the WAL: %w", err)
			return r
		}
		r.fsyncs = wal.Stats().Fsyncs
		r.wal = &loggedWAL{dir: dir, initial: w.Initial, want: store}
		if mode != modeLogged {
			b.recover(r)
			r.wal = nil
		}
	}
	if r.err == nil && pos >= 0 {
		b.lats.keep(sub, pos)
	}
	return r
}

// recover recovers a round's WAL once more and records the time; a
// failed recovery fails the round.
func (b *bench) recover(r *round) {
	if r.err != nil || r.wal == nil {
		return
	}
	runtime.GC()
	d, err := recoverAndCompare(r.wal.dir, r.wal.initial, r.wal.want)
	if err != nil {
		r.err = err
		return
	}
	r.recoveries = append(r.recoveries, d)
}

// recoverAndCompare recovers the WAL directory and checks that it
// reproduces the run's final store: every acknowledged commit present,
// nothing else. It returns the recovery time.
func recoverAndCompare(dir string, initial map[string]storage.Value, want *storage.Store) (time.Duration, error) {
	start := time.Now()
	set, err := storage.ReadWALDir(dir)
	if err != nil {
		return 0, fmt.Errorf("reading the WAL: %w", err)
	}
	got, rep, err := storage.RecoverSegmented(set, initial)
	elapsed := time.Since(start)
	if err != nil {
		return elapsed, fmt.Errorf("recovering the WAL: %w", err)
	}
	if !rep.Clean() {
		return elapsed, fmt.Errorf("recovered WAL is damaged: %v", rep)
	}
	gs, ws := got.Snapshot(), want.Snapshot()
	if len(gs) != len(ws) {
		return elapsed, fmt.Errorf("recovered store has %d objects, the run's has %d", len(gs), len(ws))
	}
	for k, v := range ws {
		if gv, ok := gs[k]; !ok || gv != v {
			return elapsed, fmt.Errorf("recovered %s = %d, the run left %d", k, gv, v)
		}
	}
	return elapsed, nil
}
