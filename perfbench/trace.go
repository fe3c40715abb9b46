package main

// The traced run's span recorder. Spans are recorded from outside the
// program, at three boundaries: the client session calls, a wrapping
// core.Fabric and a wrapping policy.Policy. Spans stay in memory and are written out as one Chrome
// trace (chrome://tracing, Perfetto) when the run ends.
//
// Every span carries the request it belongs to: a job on uvm-jobs, a
// grid cell on oversub-model. On uvm-jobs and oversub-model one caller
// drives the stack, so a fabric span's parent is the session call that
// was open when it started. On gw-stream two tenants share the fleet and
// nothing outside the program tells which tenant a fabric or policy call
// serves, so those spans carry the fleet-level request id -1 and no
// parent.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

type op uint8

const (
	// Session calls.
	opNewArray op = iota
	opLaunch
	opHostRead
	opHostWrite
	opFree
	opBuildKernel
	opSync
	// Fabric calls.
	opEnsure
	opMove
	opMoveBulk
	opFabLaunch
	opFabFree
	opHealthy
	opFabBuild
	// Policy calls.
	opAssign
	opAssignBatch
	numOps
)

var opNames = [numOps]string{
	"session.NewArray", "session.Launch", "session.HostRead", "session.HostWrite",
	"session.Free", "session.BuildKernel", "session.Sync",
	"fabric.EnsureArray", "fabric.MoveArray", "fabric.MoveArrays", "fabric.Launch",
	"fabric.FreeArray", "fabric.Healthy", "fabric.BuildKernel",
	"policy.Assign", "policy.AssignBatch",
}

func (o op) session() bool { return o <= opSync }
func (o op) fabric() bool  { return o >= opEnsure && o <= opFabBuild }

// span is one timed call. Times are nanoseconds since the recorder
// started; n is the payload bytes (moves, host reads/writes) or the
// request count (policy batches).
type span struct {
	op     op
	tid    uint8
	parent int32 // index of the causing session span, -1 for none
	req    int64
	start  int64
	end    int64
	n      int64
}

// opAgg counts every call of one op, including those past the span cap.
type opAgg struct {
	calls atomic.Int64
	ns    atomic.Int64
	n     atomic.Int64
}

// recorder collects spans and per-op totals. It is safe for concurrent
// use: the pipelined controller calls the fabric from dispatch
// goroutines.
type recorder struct {
	t0 time.Time
	// linked makes fabric and policy spans children of the open session
	// call (one caller); otherwise they carry the fleet-level id.
	linked bool

	req  atomic.Int64 // current request id
	open atomic.Int32 // index+1 of the open session span, 0 for none

	agg [numOps]opAgg

	mu      sync.Mutex
	spans   []span
	max     int
	dropped int64
}

// maxSpans bounds the recorder's memory (40 B a span). Totals keep
// counting past it, but figures taken from spans (medians of call
// durations, self times) then cover only the first maxSpans of the run,
// set-up and warm-up included; trace.spans_dropped says when.
const maxSpans = 1 << 21

func newRecorder(linked bool) *recorder {
	return &recorder{t0: time.Now(), linked: linked, max: maxSpans}
}

// liveHeap is the process's live heap (see the package-level liveHeap)
// less the recorder's own span storage, so a traced run's heap growth
// counts the program and not the tracer. A nil recorder counts nothing.
func (r *recorder) liveHeap() int64 {
	h := liveHeap()
	if r == nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return h - int64(cap(r.spans))*int64(unsafe.Sizeof(span{}))
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// setReq tags the spans that follow with request id.
func (r *recorder) setReq(id int64) { r.req.Store(id) }

// beginCall opens a session span of request req and makes it the parent
// of fabric and policy spans that start before endCall. Returns the span
// index (-1 past the cap) and the start time.
func (r *recorder) beginCall(o op, tid uint8, req int64) (int32, int64) {
	s := span{op: o, tid: tid, parent: -1, req: req, start: r.now()}
	r.mu.Lock()
	idx := int32(-1)
	if len(r.spans) < r.max {
		idx = int32(len(r.spans))
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
	r.open.Store(idx + 1)
	return idx, s.start
}

// endCall closes a session span opened with beginCall; start is its
// start time (kept by the caller so dropped spans still count).
func (r *recorder) endCall(o op, idx int32, start, n int64) {
	end := r.now()
	r.open.Store(0)
	r.count(o, end-start, n)
	if idx < 0 {
		return
	}
	r.mu.Lock()
	r.spans[idx].end = end
	r.spans[idx].n = n
	r.mu.Unlock()
}

// begin starts a fabric or policy span: its start time and, on a linked
// recorder, the request and session call it belongs to.
func (r *recorder) begin(o op, tid uint8) span {
	s := span{op: o, tid: tid, parent: -1, req: -1, start: r.now()}
	if r.linked {
		s.req = r.req.Load()
		s.parent = r.open.Load() - 1
	}
	return s
}

// end completes a span from begin; n is its bytes or request count.
func (r *recorder) end(s span, n int64) {
	s.end = r.now()
	s.n = n
	r.count(s.op, s.end-s.start, n)
	r.mu.Lock()
	if len(r.spans) < r.max {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

func (r *recorder) count(o op, ns, n int64) {
	a := &r.agg[o]
	a.calls.Add(1)
	a.ns.Add(ns)
	a.n.Add(n)
}

func (r *recorder) calls(o op) int64  { return r.agg[o].calls.Load() }
func (r *recorder) busyNs(o op) int64 { return r.agg[o].ns.Load() }
func (r *recorder) total(o op) int64  { return r.agg[o].n.Load() }

// durations returns the recorded durations of op o, in nanoseconds.
func (r *recorder) durations(o op) []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int64
	for _, s := range r.spans {
		if s.op == o && s.end > 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// sessionSelf returns the mean self time of session calls in
// nanoseconds: a call's duration minus the part of it that fabric spans
// cover. Linked recorders count only the call's own children; unlinked
// ones count every fabric span of the fleet that overlaps the call.
func (r *recorder) sessionSelf() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int32][]span{}
	var fleet []span
	for _, s := range r.spans {
		if !s.op.fabric() || s.end == 0 {
			continue
		}
		if r.linked {
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], s)
			}
		} else {
			fleet = append(fleet, s)
		}
	}
	fleetU := mergeSpans(fleet)
	var self float64
	var n int
	for i, s := range r.spans {
		if !s.op.session() || s.end == 0 {
			continue
		}
		u := fleetU
		if r.linked {
			u = mergeSpans(children[int32(i)])
		}
		self += float64(s.end - s.start - u.cover(s.start, s.end))
		n++
	}
	return ratio(self, float64(n))
}

// union is a sorted list of disjoint intervals.
type union struct {
	start, end []int64
}

func mergeSpans(ss []span) union {
	sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
	var u union
	for _, s := range ss {
		k := len(u.end) - 1
		if k >= 0 && s.start <= u.end[k] {
			if s.end > u.end[k] {
				u.end[k] = s.end
			}
			continue
		}
		u.start = append(u.start, s.start)
		u.end = append(u.end, s.end)
	}
	return u
}

// cover returns how much of [a, b] the union covers.
func (u union) cover(a, b int64) int64 {
	// First interval ending after a.
	i := sort.Search(len(u.end), func(k int) bool { return u.end[k] > a })
	var c int64
	for ; i < len(u.start) && u.start[i] < b; i++ {
		lo, hi := u.start[i], u.end[i]
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		c += hi - lo
	}
	return c
}

// maxTraceEvents bounds the Chrome trace file; the in-memory figures use
// every kept span.
const maxTraceEvents = 50_000

// writeChrome writes the kept spans as a Chrome trace-event file, the
// run's fingerprint in its metadata.
func (r *recorder) writeChrome(path string, meta map[string]any) (written int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	meta["spans_kept"] = len(r.spans)
	meta["spans_dropped"] = r.dropped
	mb, err := json.Marshal(meta)
	if err != nil {
		f.Close()
		return 0, err
	}
	fmt.Fprintf(w, "{\"metadata\":%s,\"displayTimeUnit\":\"ns\",\"traceEvents\":[", mb)
	for i, s := range r.spans {
		if i == maxTraceEvents {
			break
		}
		if s.end == 0 {
			continue
		}
		if written > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"parent\":%d,\"n\":%d}}",
			opNames[s.op], s.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.req, s.parent, s.n)
		written++
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return written, err
	}
	return written, f.Close()
}
