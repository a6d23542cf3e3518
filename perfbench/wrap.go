package main

import (
	"relser/internal/core"
	"relser/internal/fault"
	"relser/internal/metrics"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/trace"
)

// The timing wrappers sit between the engine and one layer's public
// interface and record a span around every call. They must not change
// what the run does: the engine discovers optional capabilities by type
// assertion (sched.Retirer, sched.ShardSafe, sched.TracerSetter, the
// WAL's SetMetrics), so a wrapper offers exactly the capabilities of
// what it wraps. Hiding Retirer switches RSGT's retirement and
// vector-clock fast path off; offering it over S2PL hands the engine a
// retirer that is not there.

// timedProtocol times calls into a sched.Protocol.
type timedProtocol struct {
	inner sched.Protocol
	log   *spanLog
}

// timedRetirer is timedProtocol over a protocol that implements
// sched.Retirer.
type timedRetirer struct {
	*timedProtocol
	ret sched.Retirer
}

// wrapProtocol returns p behind timing wrappers, implementing
// sched.Retirer only when p does.
func wrapProtocol(p sched.Protocol, log *spanLog) sched.Protocol {
	tp := &timedProtocol{inner: p, log: log}
	if r, ok := p.(sched.Retirer); ok {
		return &timedRetirer{timedProtocol: tp, ret: r}
	}
	return tp
}

func (p *timedProtocol) Name() string { return p.inner.Name() }

func (p *timedProtocol) Begin(instance int64, program *core.Transaction) {
	start := p.log.now()
	p.inner.Begin(instance, program)
	p.log.record(kindSchedBegin, start, p.log.now(), instance)
}

func (p *timedProtocol) Request(req sched.OpRequest) sched.Decision {
	start := p.log.now()
	d := p.inner.Request(req)
	p.log.recordRequest(start, p.log.now(), req.Instance, d)
	return d
}

func (p *timedProtocol) CanCommit(instance int64) bool {
	start := p.log.now()
	ok := p.inner.CanCommit(instance)
	p.log.record(kindSchedCanCommit, start, p.log.now(), instance)
	return ok
}

func (p *timedProtocol) Commit(instance int64) {
	start := p.log.now()
	p.inner.Commit(instance)
	p.log.record(kindSchedCommit, start, p.log.now(), instance)
}

func (p *timedProtocol) Abort(instance int64) {
	start := p.log.now()
	p.inner.Abort(instance)
	p.log.record(kindSchedAbort, start, p.log.now(), instance)
}

// ConcurrentShardSafe implements sched.ShardSafe by asking the wrapped
// protocol, so the concurrent driver picks the same admission path.
func (p *timedProtocol) ConcurrentShardSafe() bool { return sched.IsShardSafe(p.inner) }

// SetTracer implements sched.TracerSetter by attaching the tracer to
// the wrapped protocol (a no-op for protocols without tracing).
func (p *timedProtocol) SetTracer(tr *trace.Tracer) { sched.Attach(p.inner, tr) }

func (p *timedRetirer) SetRetirement(enabled bool) { p.ret.SetRetirement(enabled) }

func (p *timedRetirer) SetLowWater(instance int64) {
	start := p.log.now()
	p.ret.SetLowWater(instance)
	p.log.record(kindSchedRetire, start, p.log.now(), noGroup)
	p.log.noteLiveVertices(p.ret.RetireStats().LiveVertices)
}

func (p *timedRetirer) FlushRetirement() {
	start := p.log.now()
	p.ret.FlushRetirement()
	p.log.record(kindSchedRetire, start, p.log.now(), noGroup)
}

func (p *timedRetirer) RetireStats() sched.RetireStats {
	start := p.log.now()
	s := p.ret.RetireStats()
	p.log.record(kindSchedRetire, start, p.log.now(), noGroup)
	return s
}

// timedWAL times calls into a storage.WALSink.
type timedWAL struct {
	inner storage.WALSink
	log   *spanLog
}

func (w *timedWAL) Append(rec storage.WALRecord) error {
	start := w.log.now()
	err := w.inner.Append(rec)
	w.log.record(kindWALAppend, start, w.log.now(), rec.Instance)
	return err
}

func (w *timedWAL) AppendSync(rec storage.WALRecord) error {
	start := w.log.now()
	err := w.inner.AppendSync(rec)
	w.log.record(kindWALAppendSync, start, w.log.now(), rec.Instance)
	return err
}

func (w *timedWAL) Sync() error {
	start := w.log.now()
	err := w.inner.Sync()
	w.log.record(kindWALSync, start, w.log.now(), noGroup)
	return err
}

func (w *timedWAL) Err() error                       { return w.inner.Err() }
func (w *timedWAL) SetTracer(tr *trace.Tracer)       { w.inner.SetTracer(tr) }
func (w *timedWAL) SetInjector(in *fault.Injector)   { w.inner.SetInjector(in) }
func (w *timedWAL) SetMetrics(reg *metrics.Registry) { setMetrics(w.inner, reg) }

// setMetrics forwards to the sink's SetMetrics when it has one, the
// way the engine wires a run's registry into its WAL.
func setMetrics(sink storage.WALSink, reg *metrics.Registry) {
	if m, ok := sink.(interface{ SetMetrics(*metrics.Registry) }); ok {
		m.SetMetrics(reg)
	}
}

// timedBackend hands out segment files that time their fsyncs and
// count the bytes written to them.
type timedBackend struct {
	storage.SegmentBackend
	log *spanLog
}

func (b *timedBackend) Create(shard, index int) (storage.SegmentFile, error) {
	f, err := b.SegmentBackend.Create(shard, index)
	if err != nil {
		return nil, err
	}
	return &timedSegment{SegmentFile: f, log: b.log}, nil
}

type timedSegment struct {
	storage.SegmentFile
	log *spanLog
}

func (f *timedSegment) Write(p []byte) (int, error) {
	n, err := f.SegmentFile.Write(p)
	f.log.walBytes.Add(int64(n))
	return n, err
}

func (f *timedSegment) Sync() error {
	start := f.log.now()
	err := f.SegmentFile.Sync()
	f.log.record(kindWALFsync, start, f.log.now(), noGroup)
	return err
}
