package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"relser/internal/core"
	"relser/internal/obs"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/workload"
)

// accountingTolerance bounds how far the traced layers' self times
// plus the engine's may stray from the traced load time.
const accountingTolerance = 0.01

// report is everything one benchmark run measured and found wrong.
type report struct {
	spec   bankSpec
	cycle  []roundMode
	rounds []*round
	certs  []*certResult // one per workload instance
	lats   *latencyStore // the plain rounds' latencies
	probes []float64     // hostProbe times, seconds
	// diskProbes are diskProbe's fsync times in seconds (durable
	// workload).
	diskProbes []float64
	// unscaled are the end-to-end timings before hostSlowdown scales
	// them, for the summary.
	unscaled map[string]float64
	// cycled counts the leading rounds that ran in cycles, before the
	// recovery leg's logged rounds.
	cycled int

	attempted, failed int
	problems          []string
}

// measure runs cycles until the budget is spent and checks every run.
// A cycle runs one workload instance, the instances taking turns, and
// the run ends once every instance has had one. An untraced run's cycle is
// one plain round; a traced one pairs it with a traced round and, on
// the obs workload, a round without the plane, reversing the order on
// every other cycle, and on every other sweep over the instances, so
// that neither side of a pair always runs first. Every cycle ends with one repetition of the
// instance's certification leg and, on the RSGT workloads, one
// recovery of a recovery-leg WAL (logged before the first cycle), so
// that every figure of an instance samples the whole run and not one
// stretch of it.
func (b *bench) measure(ctx context.Context, budget time.Duration, traced bool) *report {
	rep := &report{spec: b.spec, cycle: []roundMode{modePlain}}
	if traced {
		rep.cycle = append(rep.cycle, modeTraced)
		if b.spec.obs {
			rep.cycle = append(rep.cycle, modeBare)
		}
	}
	var logged []*round
	if !b.spec.durable {
		for sub := 0; sub < recoveryInstances; sub++ {
			logged = append(logged, b.runRound(ctx, modeLogged, sub))
		}
	}
	for sub := 0; sub < subSeeds; sub++ {
		rep.certs = append(rep.certs, &certResult{})
	}
	n := len(rep.cycle)
	start := time.Now()
	for c := 0; c < subSeeds || time.Since(start) < budget; c++ {
		sub := c % subSeeds
		for i := 0; i < n; i++ {
			mode := rep.cycle[i]
			if (c+c/subSeeds)%2 == 1 {
				mode = rep.cycle[n-1-i]
			}
			rep.rounds = append(rep.rounds, b.runRound(ctx, mode, sub))
		}
		b.certify(ctx, rep.certs[sub], sub, traced)
		if len(logged) > 0 {
			b.recover(logged[c%len(logged)])
		}
		runtime.GC()
		rep.probes = append(rep.probes, hostProbe().Seconds())
		if b.spec.durable {
			d, err := diskProbe(b.tmp)
			if err != nil {
				rep.problems = append(rep.problems, fmt.Sprintf("disk probe: %v", err))
			}
			rep.diskProbes = append(rep.diskProbes, d...)
		}
	}
	rep.cycled = len(rep.rounds)
	for _, r := range logged {
		if r.wal != nil {
			os.RemoveAll(r.wal.dir)
			r.wal = nil
		}
	}
	rep.rounds = append(rep.rounds, logged...)
	rep.lats = b.lats
	rep.check(b)
	return rep
}

// check fills in the failure counts and problems: a round that errored
// (which includes a broken banking invariant or a failed recovery)
// fails all its programs, and so does a deterministic round whose
// counters differ from its workload instance's first round, or a
// failed certification leg.
func (rep *report) check(b *bench) {
	type instance struct {
		sub      int
		attached bool // the obs plane
	}
	first := map[instance]counts{}
	for i, r := range rep.rounds {
		rep.attempted += r.programs
		if r.err != nil {
			rep.failed += r.programs
			rep.problems = append(rep.problems, fmt.Sprintf("round %d (%s, seed %d): %v", i, r.mode, b.subSeed(r.sub), r.err))
			continue
		}
		rep.failed += r.programs - r.counts.Committed
		if !b.spec.concurrent {
			key := instance{r.sub, b.spec.obs && r.mode != modeBare}
			if want, ok := first[key]; !ok {
				first[key] = r.counts
			} else if r.counts != want {
				rep.failed += r.programs
				rep.problems = append(rep.problems, fmt.Sprintf(
					"determinism: round %d (%s, seed %d) gave %+v; the instance's first round gave %+v",
					i, r.mode, b.subSeed(r.sub), r.counts, want))
			}
		}
		if r.traced != nil {
			if e := accountingError(r.traced.times); e > accountingTolerance {
				rep.problems = append(rep.problems, fmt.Sprintf(
					"trace accounting: round %d layers sum to %.4f of the traced load time (tolerance %.2f)",
					i, 1+e, accountingTolerance))
			}
		}
	}
	for sub, c := range rep.certs {
		rep.attempted += c.programs
		if c.err != nil {
			rep.failed += c.programs
			rep.problems = append(rep.problems, fmt.Sprintf("certification (seed %d): %v", b.subSeed(sub), c.err))
		}
	}
}

// accountingError is |layers' self + engine self - load time| as a
// share of the load time.
func accountingError(lt layerTimes) float64 {
	if lt.loadNs == 0 {
		return 0
	}
	d := float64(lt.sum() - lt.loadNs)
	if d < 0 {
		d = -d
	}
	return d / float64(lt.loadNs)
}

// certResult is one workload instance's certification leg: the
// workload's configuration at certification size, run and certified
// against Theorem 1 once per cycle of the instance, the certification
// timed as a whole (untraced run) or step by step (traced run).
type certResult struct {
	programs  int
	err       error
	verify    []float64 // Result.Verify, seconds
	schedule  []float64 // Result.CommittedSchedule, seconds
	rsg       []float64 // core.BuildRSG + Acyclic, seconds
	arcsPerOp float64
}

// certify runs the sub-th instance's certification leg once more; the
// leg's first failure ends it.
func (b *bench) certify(ctx context.Context, c *certResult, sub int, traced bool) {
	if c.err == nil {
		c.err = b.runCert(ctx, c, b.subSeed(sub), traced)
	}
}

func (b *bench) runCert(ctx context.Context, c *certResult, seed int64, traced bool) error {
	w, err := workload.Banking(b.spec.certMix, seed)
	if err != nil {
		return err
	}
	c.programs = len(w.Programs)
	proto, err := sched.NewProtocol(b.spec.protocol, w.Oracle)
	if err != nil {
		return err
	}
	opts := workload.RunOptions{Seed: seed, MPL: b.spec.mpl, Concurrent: b.spec.concurrent}
	if b.spec.durable {
		dir, err := os.MkdirTemp(b.tmp, "cert-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		wal, err := storage.NewShardedWAL(storage.NewDirBackend(dir), storage.SegmentedOptions{Shards: 1})
		if err != nil {
			return err
		}
		defer wal.Close()
		opts.WAL = wal
	}
	if b.spec.obs {
		opts.Obs = obs.New(obs.Options{})
	}
	res, _, err := w.RunWithContext(ctx, proto, opts)
	if err != nil {
		return err
	}
	if res.Committed != c.programs {
		return fmt.Errorf("%d of %d programs committed", res.Committed, c.programs)
	}
	runtime.GC()
	start := time.Now()
	if !traced {
		if err := res.Verify(); err != nil {
			return err
		}
		c.verify = append(c.verify, time.Since(start).Seconds())
		return nil
	}
	// The same test as Result.Verify, timed step by step.
	s, sp, err := res.CommittedSchedule()
	if err != nil {
		return err
	}
	built := time.Now()
	g := core.BuildRSG(s, sp)
	acyclic := g.Acyclic()
	c.schedule = append(c.schedule, built.Sub(start).Seconds())
	c.rsg = append(c.rsg, time.Since(built).Seconds())
	if !acyclic {
		return fmt.Errorf("committed schedule is not relatively serializable; RSG cycle through %v", g.Cycle())
	}
	c.arcsPerOp = ratio(float64(g.NumArcs()), float64(s.Len()))
	return nil
}

// byInstance gathers a metric's samples by workload instance.
type byInstance [subSeeds][]float64

func (m *byInstance) add(sub int, v float64) { m[sub] = append(m[sub], v) }

// typical is the mean over instances of each instance's median: the
// median cuts the noise between one instance's repetitions, the mean
// averages over the draws of the mix. Counts, which other processes on
// the host do not disturb, take it as their value.
func (m *byInstance) typical() float64 {
	var sum float64
	n := 0
	for _, xs := range m {
		if len(xs) > 0 {
			sum += median(xs)
			n++
		}
	}
	return ratio(sum, float64(n))
}

// The quantiles a timing's value takes. Other processes on the host
// only ever slow the program down, and they do so in bursts, so a
// timing takes the fast quartile of its repetitions: the lower quartile
// of a time, the upper one of a rate. It holds still while up to three
// quarters of the repetitions are slowed, the median only while fewer
// than half are.
const (
	fastTime = 0.25
	fastRate = 0.75
)

// fast is typical scaled to the q-th quantile of the host's speed over
// the run: every sample is divided by its instance's median, and the
// q-th quantile of these ratios, pooled over all instances, scales
// typical. Pooling estimates the quantile from every repetition of
// the run rather than from the few of one instance.
func (m *byInstance) fast(q float64) float64 {
	var rel []float64
	for _, xs := range m {
		if med := median(xs); med > 0 {
			for _, x := range xs {
				rel = append(rel, x/med)
			}
		}
	}
	return m.typical() * quantile(rel, q)
}

// metrics computes the end-to-end metrics from the plain rounds and
// the per-layer metrics from the traced rounds and the counters of the
// plain ones.
func (rep *report) metrics() (e2e, layer map[string]float64) {
	var (
		allocs, heap, setup, recovery, verify byInstance
		schedule, rsg, arcsPerOp              byInstance
		plain                                 [subSeeds][]*round
		c                                     counts
		fsyncs, obsEvents, obsSpans           float64
	)
	for _, r := range rep.ok(modePlain) {
		n := float64(r.counts.Committed)
		plain[r.sub] = append(plain[r.sub], r)
		allocs.add(r.sub, float64(r.mallocs)/n)
		heap.add(r.sub, float64(r.heapPeak)/(1<<20))
		setup.add(r.sub, r.setup.Seconds())
		c.Committed += r.counts.Committed
		c.Aborts += r.counts.Aborts
		c.Restarts += r.counts.Restarts
		c.Blocks += r.counts.Blocks
		c.CommitWaits += r.counts.CommitWaits
		c.Retire.Add(r.counts.Retire)
		fsyncs += float64(r.fsyncs)
		obsEvents += float64(r.obsEvents)
		obsSpans += float64(r.obsSpans)
	}
	for _, r := range rep.rounds {
		if r.err == nil && (r.mode == modeLogged || rep.spec.durable && r.mode == modePlain) {
			for _, d := range r.recoveries {
				recovery.add(r.sub, d.Seconds())
			}
		}
	}
	for sub, cr := range rep.certs {
		if cr.err != nil {
			continue
		}
		for i := range cr.verify {
			verify.add(sub, cr.verify[i])
		}
		for i := range cr.rsg {
			schedule.add(sub, cr.schedule[i])
			rsg.add(sub, cr.rsg[i])
		}
		if cr.arcsPerOp > 0 {
			arcsPerOp.add(sub, cr.arcsPerOp)
		}
	}
	// On the deterministic driver throughput and latency take the fast
	// quartile of every window and every program over an instance's
	// rounds; the concurrent driver's schedule differs from round to
	// round, so there they take the fast quartile of whole rounds.
	var tps, p50, p99 []float64
	var roundTPS, roundP50, roundP99 byInstance
	for sub, rounds := range plain {
		switch {
		case len(rounds) == 0:
		case rep.spec.concurrent:
			for _, r := range rounds {
				roundTPS.add(sub, float64(r.counts.Committed)/r.wall.Seconds())
				roundP50.add(sub, r.latencyP50/1e3)
				roundP99.add(sub, r.latencyP99/1e3)
			}
		default:
			tps = append(tps, windowedTPS(rounds))
			lat := rep.lats.fastest(sub)
			p50 = append(p50, percentile(lat, 50)/1e3)
			p99 = append(p99, percentile(lat, 99)/1e3)
		}
	}
	if rep.spec.concurrent {
		tps = []float64{roundTPS.fast(fastRate)}
		p50 = []float64{roundP50.fast(fastTime)}
		p99 = []float64{roundP99.fast(fastTime)}
	}
	e2e = map[string]float64{
		"commit_tps":     mean(tps),
		"commit_p50_us":  mean(p50),
		"commit_p99_us":  mean(p99),
		"allocs_per_txn": allocs.typical(),
		"heap_peak_mb":   heap.typical(),
		"verify_s":       verify.fast(fastTime),
		"recover_s":      recovery.fast(fastTime),
		"setup_s":        setup.fast(fastTime),
	}
	// Timings are scaled to the nominal host: those of work that
	// computes by the host's slowdown, on the durable workload
	// throughput and the p99 tail, which queue behind fsyncs, by the
	// disk's. The durable p50 is a mix of both and stays unscaled.
	host, disk := rep.hostSlowdown(), rep.diskSlowdown()
	scale := map[string]float64{"verify_s": host, "recover_s": host, "setup_s": host,
		"commit_tps": host, "commit_p50_us": host, "commit_p99_us": host}
	if rep.spec.durable {
		scale["commit_tps"], scale["commit_p99_us"] = disk, disk
		delete(scale, "commit_p50_us")
	}
	rep.unscaled = map[string]float64{}
	for name, f := range scale {
		rep.unscaled[name] = e2e[name]
		if name == "commit_tps" {
			e2e[name] *= f
		} else {
			e2e[name] /= f
		}
	}

	var (
		loadNs, engineNs, tracedCommitted, walBytes, worstAccounting float64
		selfNs                                                       [numKinds]float64
		kindP50, kindP99                                             [numKinds][]float64
		peakLive                                                     int
		decisions                                                    [3]float64
	)
	for _, r := range rep.ok(modeTraced) {
		t := r.traced
		tracedCommitted += float64(r.counts.Committed)
		loadNs += float64(t.times.loadNs)
		engineNs += float64(t.times.engineNs)
		for k := range selfNs {
			selfNs[k] += float64(t.times.selfNs[k])
			kindP50[k] = append(kindP50[k], t.times.p50[k])
			kindP99[k] = append(kindP99[k], t.times.p99[k])
		}
		if t.peakLive > peakLive {
			peakLive = t.peakLive
		}
		for d, n := range t.decisions {
			decisions[d] += float64(n)
		}
		walBytes += float64(t.walBytes)
		if e := accountingError(t.times); e > worstAccounting {
			worstAccounting = e
		}
	}
	var schedNs float64
	for k := kindSchedBegin; k <= kindSchedRetire; k++ {
		schedNs += selfNs[k]
	}
	requests := decisions[sched.Grant] + decisions[sched.Block] + decisions[sched.Abort]
	var traceOver, obsOver []float64
	for _, cyc := range rep.cycles() {
		plain, ok := cyc[modePlain]
		if !ok {
			continue
		}
		if t, ok := cyc[modeTraced]; ok {
			traceOver = append(traceOver, 1-plain.wall.Seconds()/t.wall.Seconds())
		}
		if bare, ok := cyc[modeBare]; ok {
			obsOver = append(obsOver, 1-bare.wall.Seconds()/plain.wall.Seconds())
		}
	}
	committed := float64(c.Committed)
	layer = map[string]float64{
		"engine.self_ns_per_txn":        ratio(engineNs, tracedCommitted),
		"engine.restarts_per_txn":       ratio(float64(c.Restarts), committed),
		"engine.blocks_per_txn":         ratio(float64(c.Blocks), committed),
		"engine.commit_waits_per_txn":   ratio(float64(c.CommitWaits), committed),
		"engine.abort_ratio":            ratio(float64(c.Aborts), committed+float64(c.Aborts)),
		"sched.request_ns_p50":          median(kindP50[kindSchedRequest]),
		"sched.request_ns_p99":          median(kindP99[kindSchedRequest]),
		"sched.request_busy_share":      ratio(selfNs[kindSchedRequest], loadNs),
		"sched.busy_share":              ratio(schedNs, loadNs),
		"sched.commit_ns_p50":           median(kindP50[kindSchedCommit]),
		"sched.grant_ratio":             ratio(decisions[sched.Grant], requests),
		"sched.block_ratio":             ratio(decisions[sched.Block], requests),
		"graph.fastpath_hit_ratio":      c.Retire.HitRate(),
		"graph.peak_live_vertices":      float64(peakLive),
		"graph.retired_per_txn":         ratio(float64(c.Retire.RetiredVertices), committed),
		"graph.rebases_per_ktxn":        ratio(1000*float64(c.Retire.Rebases), committed),
		"storage.apply_ns_p50":          median(kindP50[kindApply]),
		"storage.apply_busy_share":      ratio(selfNs[kindApply], loadNs),
		"storage.wal.append_ns_p50":     median(kindP50[kindWALAppend]),
		"storage.wal.sync_wait_ns_p50":  median(kindP50[kindWALAppendSync]),
		"storage.wal.sync_wait_ns_p99":  median(kindP99[kindWALAppendSync]),
		"storage.wal.fsync_ns_p50":      median(kindP50[kindWALFsync]),
		"storage.wal.busy_share":        ratio(selfNs[kindWALAppend]+selfNs[kindWALAppendSync]+selfNs[kindWALSync], loadNs),
		"storage.wal.commits_per_fsync": ratio(committed, fsyncs),
		"storage.wal.bytes_per_txn":     ratio(walBytes, tracedCommitted),
		"obs.events_per_txn":            ratio(obsEvents, committed),
		"obs.spans_per_txn":             ratio(obsSpans, committed),
		"obs.overhead_share":            median(obsOver),
		"core.schedule_build_s":         schedule.fast(fastTime),
		"core.rsg_build_s":              rsg.fast(fastTime),
		"core.rsg_arcs_per_op":          arcsPerOp.typical(),
		"trace.overhead_share":          median(traceOver),
		"trace.accounting_error":        worstAccounting,
	}
	return e2e, layer
}

// hostSlowdown is how much slower than nominal the host ran this
// process: the fast quartile of the run's hostProbe times over
// probeNominal.
//
// Other machines' load on the shared host, and where the process's
// memory happens to lie, slow the host for whole runs at a time by as
// much as half again, far beyond any bound a timing could have, and
// the same for every timing of the run. The probe, a fixed piece of
// work of the program's kind that the benchmark times after every
// cycle, slows by the same factor, so dividing it out leaves what the
// program itself costs. The probe is the benchmark's own code: a
// change to the program cannot move it.
func (rep *report) hostSlowdown() float64 {
	if len(rep.probes) == 0 {
		return 1
	}
	return quantile(rep.probes, fastTime) / probeNominal.Seconds()
}

// diskSlowdown is how much slower than nominal the disk synced this
// run's writes: the median of its diskProbe fsync times over
// diskNominal (1 without any).
//
// The disk is shared as well, and the durable workload's commits wait
// for it. With another process writing O_DSYNC on the same disk during
// every other run of s2pl-durable-transfers, unscaled commit_p99_us
// spread by 0.38 of its median and commit_tps by 0.15; scaled by this,
// by 0.16 and 0.11. (commit_p50_us, half of it CPU, spread by 0.17
// unscaled and 0.40 scaled, so it is not scaled.)
func (rep *report) diskSlowdown() float64 {
	if len(rep.diskProbes) == 0 {
		return 1
	}
	return median(rep.diskProbes) / diskNominal.Seconds()
}

// windowedTPS is one workload instance's commits per second over its
// plain rounds. Every round's time is cut at every commitWindow-th
// commit; each window takes the fast quartile of its lengths over the
// rounds, and these add up to the instance's round time. The
// deterministic driver commits the same programs in the same order in
// every round, so a window's length repeats but for the host's noise,
// and the quartile drops the rounds in which the neighbours' load hit
// that window.
func windowedTPS(rounds []*round) float64 {
	n := len(rounds[0].marks)
	var total float64
	lens := make([]float64, 0, len(rounds))
	for k := 0; k <= n; k++ {
		lens = lens[:0]
		for _, r := range rounds {
			if len(r.marks) != n {
				continue
			}
			begin, end := int64(0), int64(r.wall)
			if k > 0 {
				begin = r.marks[k-1]
			}
			if k < n {
				end = r.marks[k]
			}
			lens = append(lens, float64(end-begin))
		}
		total += quantile(lens, fastTime)
	}
	return ratio(float64(rounds[0].counts.Committed), total/1e9)
}

// ok returns the rounds of one mode that completed without error.
func (rep *report) ok(mode roundMode) []*round {
	var out []*round
	for _, r := range rep.rounds {
		if r.mode == mode && r.err == nil {
			out = append(out, r)
		}
	}
	return out
}

// cycles groups the error-free rounds of each cycle by mode, for the
// paired overhead comparisons.
func (rep *report) cycles() []map[roundMode]*round {
	var out []map[roundMode]*round
	for i := 0; i+len(rep.cycle) <= rep.cycled; i += len(rep.cycle) {
		cyc := map[roundMode]*round{}
		for _, r := range rep.rounds[i : i+len(rep.cycle)] {
			if r.err == nil {
				cyc[r.mode] = r
			}
		}
		out = append(out, cyc)
	}
	return out
}

// printSummary prints what the metrics rest on: round and sample
// counts, the failure ratio, the checks made, and the traced run's
// accounting.
func (b *bench) printSummary(w io.Writer, rep *report) {
	fmt.Fprintf(w, "workload %s: %s\n", b.spec.name, b.spec.why)
	rounds := map[roundMode]int{}
	recovered := 0
	for _, r := range rep.rounds {
		rounds[r.mode]++
		if len(r.recoveries) > 0 {
			recovered++
		}
	}
	perRound := 0
	if plain := rep.ok(modePlain); len(plain) > 0 {
		perRound = plain[0].latencyN
	}
	fmt.Fprintf(w, "host speed: probe %.3f ms (fast quartile of %d), nominal %.0f ms: slowdown %.4f\n",
		1e3*quantile(rep.probes, fastTime), len(rep.probes), 1e3*probeNominal.Seconds(), rep.hostSlowdown())
	if len(rep.diskProbes) > 0 {
		fmt.Fprintf(w, "disk speed: fsync %.1f us (median of %d), nominal %.0f us: slowdown %.4f\n",
			1e6*median(rep.diskProbes), len(rep.diskProbes), 1e6*diskNominal.Seconds(), rep.diskSlowdown())
	}
	certified := 0
	for _, c := range rep.certs {
		certified += c.programs
	}
	fmt.Fprintf(w, "workload instances: seeds %d..%d of seed %d\n", b.subSeed(0), b.subSeed(subSeeds-1), b.seed)
	fmt.Fprintf(w, "rounds: %d plain, %d traced, %d without the obs plane, %d logged\nfigures: per workload instance the fast quartile of its repetitions, then the mean over instances\n",
		rounds[modePlain], rounds[modeTraced], rounds[modeBare], rounds[modeLogged])
	fmt.Fprintf(w, "commit latency: p50 and p99 of %d commits per plain round\n", perRound)
	fmt.Fprintf(w, "txn_fail_ratio: %d of %d programs never committed (%.6g)\n",
		rep.failed, rep.attempted, ratio(float64(rep.failed), float64(rep.attempted)))
	fmt.Fprintf(w, "checks: banking invariant on every round; %d WALs recovered to the final store; %d programs certified against Theorem 1\n",
		recovered, certified)
	for _, r := range rep.ok(modeTraced) {
		lt := r.traced.times
		fmt.Fprintf(w, "trace accounting: layers + engine = %.5f of load time %.3fs (tolerance %.2f)\n",
			float64(lt.sum())/float64(lt.loadNs), float64(lt.loadNs)/1e9, accountingTolerance)
		break
	}
}

// writeSpans writes the last traced round's spans under dir and
// returns the file's path ("" when no traced round completed).
func (b *bench) writeSpans(dir string) (string, error) {
	if b.lastLog == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.spec.name, b.seed))
	return path, b.lastLog.writeJSONL(path)
}
