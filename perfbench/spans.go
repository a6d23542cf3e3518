package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"relser/internal/sched"
	"relser/internal/txn"
)

// spanKind names a layer boundary the traced run records.
type spanKind uint8

const (
	kindDropped spanKind = iota // a Decide that no Apply followed
	kindSchedBegin
	kindSchedRequest
	kindSchedCanCommit
	kindSchedCommit
	kindSchedAbort
	kindSchedRetire // SetLowWater, FlushRetirement, RetireStats
	kindApply       // Decide hook to Apply hook: the store access
	kindWALAppend
	kindWALAppendSync // the commit record's group-commit wait
	kindWALSync
	kindWALFsync // segment fsync, on the WAL's committer goroutine
	numKinds
)

var kindNames = [numKinds]string{
	"dropped", "sched.begin", "sched.request", "sched.can_commit", "sched.commit",
	"sched.abort", "sched.retire", "storage.apply", "storage.wal.append",
	"storage.wal.append_sync", "storage.wal.sync", "storage.wal.fsync",
}

func (k spanKind) sched() bool { return k >= kindSchedBegin && k <= kindSchedRetire }

func (k spanKind) wal() bool { return k >= kindWALAppend && k <= kindWALSync }

// background kinds run off the driver's goroutines and stay out of the
// load-time accounting.
func (k spanKind) background() bool { return k == kindWALFsync }

// noGroup marks spans that belong to no transaction instance.
const noGroup = -1

// span is one timed call. Times are nanoseconds since the log's base;
// group is the transaction instance (the span-group ID) or noGroup;
// parent indexes the enclosing span or is -1.
type span struct {
	kind       spanKind
	start, end int64
	parent     int32
	group      int64
}

// spanLog keeps a traced round's spans in memory. Wrapper calls and
// hooks may arrive from both workers of the concurrent driver, so every
// mutation takes mu; untraced rounds have no log at all.
type spanLog struct {
	base time.Time

	mu    sync.Mutex
	spans []span
	// open maps an instance to its Apply span while the instance sits
	// between its Decide and Apply hooks; WAL calls for the instance in
	// that window are the span's children.
	open      map[int64]int32
	decisions [3]int64 // indexed by sched.Decision
	peakLive  int

	walBytes atomic.Int64
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{base: time.Now(), spans: make([]span, 0, capacity), open: make(map[int64]int32)}
}

// now reads the clock for a span boundary.
func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

func (l *spanLog) record(k spanKind, start, end, group int64) {
	l.mu.Lock()
	l.recordLocked(k, start, end, group)
	l.mu.Unlock()
}

func (l *spanLog) recordLocked(k spanKind, start, end, group int64) {
	parent := int32(-1)
	if group != noGroup {
		if idx, ok := l.open[group]; ok {
			if k.wal() {
				parent = idx
			} else if k.sched() {
				// A lifecycle call after a Decide with no Apply (the
				// instance is aborting): the window never became an
				// Apply.
				l.dropLocked(group)
			}
		}
	}
	l.spans = append(l.spans, span{kind: k, start: start, end: end, parent: parent, group: group})
}

func (l *spanLog) recordRequest(start, end, instance int64, d sched.Decision) {
	l.mu.Lock()
	l.recordLocked(kindSchedRequest, start, end, instance)
	if d >= 0 && int(d) < len(l.decisions) {
		l.decisions[d]++
	}
	l.mu.Unlock()
}

func (l *spanLog) noteLiveVertices(n int) {
	l.mu.Lock()
	if n > l.peakLive {
		l.peakLive = n
	}
	l.mu.Unlock()
}

func (l *spanLog) dropLocked(instance int64) {
	if idx, ok := l.open[instance]; ok {
		l.spans[idx].kind = kindDropped
		delete(l.open, instance)
	}
}

// hooks adds the traced run's Issue, Decide and Apply hooks to h.
// They only read the clock and append to the log under its leaf mutex;
// they never block or call back into the engine.
func (l *spanLog) hooks(h txn.Hooks) txn.Hooks {
	h.Issue = func(st *txn.Instance) {
		l.mu.Lock()
		l.dropLocked(st.ID) // a Decide that blocked last time
		l.mu.Unlock()
	}
	h.Decide = func(st *txn.Instance) {
		now := l.now()
		l.mu.Lock()
		l.open[st.ID] = int32(len(l.spans))
		l.spans = append(l.spans, span{kind: kindApply, start: now, end: now, parent: -1, group: st.ID})
		l.mu.Unlock()
	}
	h.Apply = func(st *txn.Instance) {
		now := l.now()
		l.mu.Lock()
		if idx, ok := l.open[st.ID]; ok {
			l.spans[idx].end = now
			delete(l.open, st.ID)
		}
		l.mu.Unlock()
	}
	return h
}

// layerTimes is one traced round's accounting: self time per span kind
// over the driver's goroutines, and percentiles of the spans' self
// times.
type layerTimes struct {
	loadNs   int64 // run wall time x load goroutines
	engineNs int64 // load time no span covers: the engine's own work and waits
	selfNs   [numKinds]int64
	p50, p99 [numKinds]float64
}

// figures summarizes the round's spans and wrapper counts.
func (l *spanLog) figures(runStart, runEnd int64, goroutines int) *tracedFigures {
	f := &tracedFigures{times: l.account(runStart, runEnd, goroutines), walBytes: l.walBytes.Load()}
	l.mu.Lock()
	f.peakLive, f.decisions = l.peakLive, l.decisions
	l.mu.Unlock()
	return f
}

// account computes self times for the spans recorded between runStart
// and runEnd. A span's self time is its duration minus its children's;
// the engine's self time is the load time that no root span covers.
// If the spans nest as a tree with at most one open span per
// goroutine, the layers' self times plus the engine's sum to the load
// time exactly. They sum to more when spans overlap more than there are
// load goroutines (time covered twice is counted twice) or a child
// sticks out of its parent (its parent's self time is clipped at 0).
func (l *spanLog) account(runStart, runEnd int64, goroutines int) layerTimes {
	l.mu.Lock()
	defer l.mu.Unlock()
	var lt layerTimes
	lt.loadNs = (runEnd - runStart) * int64(goroutines)
	childNs := make([]int64, len(l.spans))
	for _, sp := range l.spans {
		if sp.kind != kindDropped && sp.parent >= 0 {
			childNs[sp.parent] += sp.end - sp.start
		}
	}
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	var samples [numKinds][]int64
	for i, sp := range l.spans {
		if sp.kind == kindDropped || sp.start < runStart {
			continue
		}
		self := sp.end - sp.start - childNs[i]
		if self < 0 {
			self = 0
		}
		lt.selfNs[sp.kind] += self
		samples[sp.kind] = append(samples[sp.kind], self)
		if sp.parent < 0 && !sp.kind.background() {
			edges = append(edges, edge{sp.start, 1}, edge{sp.end, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta // close before open at a tie
	})
	var covered int64
	depth := 0
	for i, e := range edges {
		if i > 0 {
			d := depth
			if d > goroutines {
				d = goroutines
			}
			covered += int64(d) * (e.at - edges[i-1].at)
		}
		depth += e.delta
	}
	lt.engineNs = lt.loadNs - covered
	for k, xs := range samples {
		lt.p50[k], lt.p99[k] = percentile(xs, 50), percentile(xs, 99)
	}
	return lt
}

// sum is the layers' self time plus the engine's.
func (lt layerTimes) sum() int64 {
	total := lt.engineNs
	for k := range lt.selfNs {
		if !spanKind(k).background() {
			total += lt.selfNs[k]
		}
	}
	return total
}

// writeJSONL writes the spans one JSON object per line.
func (l *spanLog) writeJSONL(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, sp := range l.spans {
		if sp.kind == kindDropped {
			continue
		}
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"group\":%d}\n",
			i, kindNames[sp.kind], sp.start, sp.end, sp.parent, sp.group)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
