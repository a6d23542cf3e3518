package main

import (
	"fmt"
	"math"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"relser/internal/core"
	"relser/internal/txn"
)

// latencyRecorder measures each program's wall time from its first
// Admit to its Commit, and the time of every commitWindow-th commit.
// Both hooks run lifecycle-locked in either driver, and the tables are
// sized up front so the hooks allocate nothing that would show in
// allocs_per_txn.
type latencyRecorder struct {
	base       time.Time
	firstAdmit []int64 // by program ID; 0 when not yet admitted
	// latency holds each program's latency in ns by program ID, 0 for
	// none: a slot of the latencyStore, or a table of the round's own.
	latency []int64
	commits int
	marks   []int64 // ns from the start to every commitWindow-th commit
}

// commitWindow is how many commits one throughput window spans.
const commitWindow = 64

// newLatencyRecorder records into latency, which has a slot for every
// program ID (nil: a table of its own).
func newLatencyRecorder(programs []*core.Transaction, latency []int64) *latencyRecorder {
	slots := maxProgramID(programs) + 1
	if latency == nil {
		latency = make([]int64, slots)
	}
	return &latencyRecorder{
		firstAdmit: make([]int64, slots),
		latency:    latency,
		marks:      make([]int64, 0, len(programs)/commitWindow+1),
	}
}

func maxProgramID(programs []*core.Transaction) int {
	maxID := 0
	for _, p := range programs {
		if int(p.ID) > maxID {
			maxID = int(p.ID)
		}
	}
	return maxID
}

// hooks installs the Admit and Commit hooks, the only ones an untraced
// round has; start must be called before the run.
func (r *latencyRecorder) hooks() txn.Hooks {
	return txn.Hooks{
		Admit: func(st *txn.Instance) {
			if id := st.Program.ID; r.firstAdmit[id] == 0 {
				r.firstAdmit[id] = int64(time.Since(r.base)) + 1
			}
		},
		Commit: func(st *txn.Instance) {
			now := int64(time.Since(r.base)) + 1
			if first := r.firstAdmit[st.Program.ID]; first > 0 {
				r.latency[st.Program.ID] = now - first
			}
			if r.commits++; r.commits%commitWindow == 0 {
				r.marks = append(r.marks, now)
			}
		},
	}
}

func (r *latencyRecorder) start() { r.base = time.Now() }

// elapsed is the time since start.
func (r *latencyRecorder) elapsed() time.Duration { return time.Since(r.base) }

// latencies are the recorded latencies in ns, in program ID order.
func (r *latencyRecorder) latencies() []int64 {
	var out []int64
	for _, l := range r.latency {
		if l > 0 {
			out = append(out, l)
		}
	}
	return out
}

// latencyStore keeps the per-program latencies of the latest
// keptRounds plain rounds of every workload instance. It lives off the
// Go heap, in an anonymous mapping, so that what the benchmark keeps
// between rounds changes neither the GC's pacing nor the live heap the
// rounds report.
type latencyStore struct {
	mem   []byte
	slots int             // program IDs per round
	kept  [subSeeds][]int // ring positions that hold a finished round
	next  [subSeeds]int   // the ring position the next round takes
}

const keptRounds = 7

func newLatencyStore(slots int) (*latencyStore, error) {
	mem, err := syscall.Mmap(-1, 0, subSeeds*keptRounds*slots*8,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the latency store: %w", err)
	}
	return &latencyStore{mem: mem, slots: slots}, nil
}

func (s *latencyStore) close() error { return syscall.Munmap(s.mem) }

// position is the sub-th instance's pos-th ring position as a table of
// int64s.
func (s *latencyStore) position(sub, pos int) []int64 {
	b := s.mem[(sub*keptRounds+pos)*s.slots*8:][:s.slots*8]
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), s.slots)
}

// claim hands out the sub-th instance's next ring position, cleared,
// for a round of programs to record into. The position stops counting
// as a finished round until keep is called with it.
func (s *latencyStore) claim(sub int, programs []*core.Transaction) (int, []int64, error) {
	if n := maxProgramID(programs) + 1; n > s.slots {
		return 0, nil, fmt.Errorf("latency store has %d slots, the round's programs need %d", s.slots, n)
	}
	pos := s.next[sub]
	s.next[sub] = (pos + 1) % keptRounds
	for i, p := range s.kept[sub] {
		if p == pos {
			s.kept[sub] = append(s.kept[sub][:i], s.kept[sub][i+1:]...)
			break
		}
	}
	t := s.position(sub, pos)
	clear(t)
	return pos, t, nil
}

// keep counts the sub-th instance's claimed position pos as a finished
// round.
func (s *latencyStore) keep(sub, pos int) { s.kept[sub] = append(s.kept[sub], pos) }

// fastest are, for every program of the sub-th instance with a
// latency, the fast quartile of its latencies in ns over the
// instance's kept rounds. On the deterministic driver a program's
// latency repeats from round to round but for the host's noise, so the
// quartile drops the rounds in which the neighbours' load hit that
// program.
func (s *latencyStore) fastest(sub int) []int64 {
	var out []int64
	vals := make([]float64, 0, keptRounds)
	for id := 0; id < s.slots; id++ {
		vals = vals[:0]
		for _, pos := range s.kept[sub] {
			if l := s.position(sub, pos)[id]; l > 0 {
				vals = append(vals, float64(l))
			}
		}
		if len(vals) > 0 {
			out = append(out, int64(quantile(vals, fastTime)))
		}
	}
	return out
}

// heapSampler tracks the peak live heap from outside the program: a
// goroutine polls the runtime's live-heap figure (updated at every GC)
// and keeps the maximum since the last reset.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []rtmetrics.Sample{{Name: liveHeapMetric}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe(sample)
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(sample []rtmetrics.Sample) {
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() != rtmetrics.KindUint64 {
		return
	}
	v := sample[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset starts a new peak from the current live heap.
func (h *heapSampler) reset() {
	h.peak.Store(0)
	h.sample()
}

// sample takes one sample now.
func (h *heapSampler) sample() { h.observe([]rtmetrics.Sample{{Name: liveHeapMetric}}) }

// close stops the sampling goroutine and waits for it to exit.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the q-th quantile of xs, interpolated linearly between
// the order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// probeSink keeps hostProbe's result live.
var probeSink int

// probeNodes sizes hostProbe's work, and probeNominal is its time on a
// quiet host (2.1 GHz x86-64, one P), the speed the scaled timings are
// given at.
const (
	probeNodes   = 50000
	probeNominal = 14 * time.Millisecond
)

// hostProbe times a fixed piece of work of the program's kind: string
// keys inserted into a map and looked up again, and a list of small
// heap objects walked from end to end (see hostSlowdown).
func hostProbe() time.Duration {
	type node struct {
		key  string
		val  int
		next *node
	}
	start := time.Now()
	m := make(map[string]*node)
	var head *node
	for i := 0; i < probeNodes; i++ {
		k := "k" + strconv.Itoa(i*7919%probeNodes)
		head = &node{key: k, val: i, next: head}
		m[k] = head
	}
	sum := 0
	for n := head; n != nil; n = n.next {
		sum += m[n.key].val
	}
	probeSink = sum
	return time.Since(start)
}

// mean of xs (0 for none).
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// percentile is the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return float64(s[rank-1])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// diskNominal is diskProbe's median fsync time on a quiet disk (the
// virtio disk of the VM probeNominal was measured on).
const diskNominal = 80 * time.Microsecond

// diskProbe appends 256 bytes to a new file in dir and fsyncs it,
// sixteen times, and returns the fsyncs' times in seconds (see
// diskSlowdown).
func diskProbe(dir string) ([]float64, error) {
	f, err := os.CreateTemp(dir, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 256)
	var out []float64
	for i := 0; i < 16; i++ {
		if _, err := f.Write(buf); err != nil {
			return out, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return out, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}
