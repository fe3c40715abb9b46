package main

// Traced wrappers around the controller's two plug-in points. They time
// each call and change nothing else: the controller discovers fast paths
// by type assertion (BulkEstimator, StallPredictor, BulkMover,
// KernelBuilder, ConcurrentDispatcher on the fabric; BatchAssigner,
// StallAware on the policy), so a wrapper must expose exactly the
// optional interfaces of what it wraps — one more or one fewer and the
// traced run would schedule differently from the untraced one.

import (
	"fmt"
	"sync"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/sim"
)

// Chrome-trace thread ids of the wrapped layers; session calls use
// 1+tenant.
const (
	tidFabric = 20
	tidPolicy = 30
)

// tracedFabric times the core.Fabric methods that do work. Estimates and
// stall predictions are pure local arithmetic, called per candidate
// worker, and are forwarded untimed.
type tracedFabric struct {
	inner core.Fabric
	rec   *recorder

	mu    sync.Mutex
	sizes map[dag.ArrayID]int64 // bytes per array, from EnsureArray
}

func (f *tracedFabric) size(id dag.ArrayID) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sizes[id]
}

func (f *tracedFabric) Workers() []cluster.NodeID { return f.inner.Workers() }

func (f *tracedFabric) EnsureArray(w cluster.NodeID, meta grcuda.ArrayMeta) error {
	s := f.rec.begin(opEnsure, tidFabric)
	err := f.inner.EnsureArray(w, meta)
	f.rec.end(s, 0)
	f.mu.Lock()
	f.sizes[meta.ID] = meta.Len * int64(meta.Kind.Size())
	f.mu.Unlock()
	return err
}

func (f *tracedFabric) MoveArray(id dag.ArrayID, src, dst cluster.NodeID, srcReady sim.VirtualTime,
	srcBuf, dstBuf *kernels.Buffer) (sim.VirtualTime, error) {
	s := f.rec.begin(opMove, tidFabric)
	t, err := f.inner.MoveArray(id, src, dst, srcReady, srcBuf, dstBuf)
	var n int64
	if src != dst {
		n = f.size(id)
	}
	f.rec.end(s, n)
	return t, err
}

func (f *tracedFabric) Launch(w cluster.NodeID, inv core.Invocation, ready sim.VirtualTime) (sim.VirtualTime, error) {
	s := f.rec.begin(opFabLaunch, tidFabric)
	t, err := f.inner.Launch(w, inv, ready)
	f.rec.end(s, 0)
	return t, err
}

func (f *tracedFabric) EstimateTransfer(src, dst cluster.NodeID, n memmodel.Bytes) sim.VirtualTime {
	return f.inner.EstimateTransfer(src, dst, n)
}

func (f *tracedFabric) FreeArray(w cluster.NodeID, id dag.ArrayID) error {
	s := f.rec.begin(opFabFree, tidFabric)
	err := f.inner.FreeArray(w, id)
	f.rec.end(s, 0)
	return err
}

func (f *tracedFabric) Healthy(w cluster.NodeID) bool {
	s := f.rec.begin(opHealthy, tidFabric)
	ok := f.inner.Healthy(w)
	f.rec.end(s, 0)
	return ok
}

// The optional fabric interfaces, each forwarding to the wrapped fabric.
type (
	fabBulkEst  struct{ f *tracedFabric }
	fabStall    struct{ f *tracedFabric }
	fabBulkMove struct{ f *tracedFabric }
	fabBuild    struct{ f *tracedFabric }
	fabConc     struct{ f *tracedFabric }
)

func (x fabBulkEst) EstimateTransferAll(src cluster.NodeID, n memmodel.Bytes, dsts []cluster.NodeID, out []sim.VirtualTime) {
	x.f.inner.(core.BulkEstimator).EstimateTransferAll(src, n, dsts, out)
}

func (x fabStall) PredictStall(w cluster.NodeID, add, working memmodel.Bytes, p memmodel.Pattern) sim.VirtualTime {
	return x.f.inner.(core.StallPredictor).PredictStall(w, add, working, p)
}

func (x fabBulkMove) MoveArrays(dst cluster.NodeID, ids []dag.ArrayID, srcReady sim.VirtualTime,
	bufs []*kernels.Buffer) (sim.VirtualTime, error) {
	s := x.f.rec.begin(opMoveBulk, tidFabric)
	t, err := x.f.inner.(core.BulkMover).MoveArrays(dst, ids, srcReady, bufs)
	var n int64
	for _, id := range ids {
		n += x.f.size(id)
	}
	x.f.rec.end(s, n)
	return t, err
}

func (x fabBuild) BuildKernel(src, signature string) error {
	s := x.f.rec.begin(opFabBuild, tidFabric)
	err := x.f.inner.(core.KernelBuilder).BuildKernel(src, signature)
	x.f.rec.end(s, 0)
	return err
}

func (x fabConc) ConcurrentDispatch() bool {
	return x.f.inner.(core.ConcurrentDispatcher).ConcurrentDispatch()
}

// fabricShape is the set of optional interfaces a fabric implements.
type fabricShape struct{ bulkEst, stall, bulkMove, build, conc bool }

func shapeOf(f core.Fabric) fabricShape {
	var s fabricShape
	_, s.bulkEst = f.(core.BulkEstimator)
	_, s.stall = f.(core.StallPredictor)
	_, s.bulkMove = f.(core.BulkMover)
	_, s.build = f.(core.KernelBuilder)
	_, s.conc = f.(core.ConcurrentDispatcher)
	return s
}

// wrapFabric returns a traced fabric with the same optional interfaces
// as inner. It covers the two shapes this benchmark runs — the
// in-process LocalFabric and the TCP fabric; any other shape is an error
// rather than a wrapper that would change what the controller sees.
func wrapFabric(inner core.Fabric, rec *recorder) (core.Fabric, error) {
	t := &tracedFabric{inner: inner, rec: rec, sizes: map[dag.ArrayID]int64{}}
	switch shapeOf(inner) {
	case fabricShape{bulkEst: true, stall: true, bulkMove: true, build: true}: // LocalFabric
		return struct {
			*tracedFabric
			fabBulkEst
			fabStall
			fabBulkMove
			fabBuild
		}{t, fabBulkEst{t}, fabStall{t}, fabBulkMove{t}, fabBuild{t}}, nil
	case fabricShape{build: true, conc: true}: // TCPFabric
		return struct {
			*tracedFabric
			fabBuild
			fabConc
		}{t, fabBuild{t}, fabConc{t}}, nil
	}
	return nil, fmt.Errorf("perfbench: no traced wrapper for fabric %T with optional interfaces %+v", inner, shapeOf(inner))
}

// tracedPolicy times Assign and AssignBatch.
type tracedPolicy struct {
	inner policy.Policy
	rec   *recorder
}

func (p *tracedPolicy) Name() string        { return p.inner.Name() }
func (p *tracedPolicy) NeedsDataView() bool { return p.inner.NeedsDataView() }

func (p *tracedPolicy) Assign(req policy.Request) cluster.NodeID {
	s := p.rec.begin(opAssign, tidPolicy)
	id := p.inner.Assign(req)
	p.rec.end(s, 1)
	return id
}

type (
	polBatch struct{ p *tracedPolicy }
	polStall struct{ p *tracedPolicy }
)

func (x polBatch) AssignBatch(reqs []policy.Request) []cluster.NodeID {
	s := x.p.rec.begin(opAssignBatch, tidPolicy)
	out := x.p.inner.(policy.BatchAssigner).AssignBatch(reqs)
	x.p.rec.end(s, int64(len(reqs)))
	return out
}

func (x polStall) NeedsStallView() bool { return x.p.inner.(policy.StallAware).NeedsStallView() }

// wrapPolicy returns a traced policy with the same optional interfaces
// as inner.
func wrapPolicy(inner policy.Policy, rec *recorder) policy.Policy {
	t := &tracedPolicy{inner: inner, rec: rec}
	_, batch := inner.(policy.BatchAssigner)
	_, stall := inner.(policy.StallAware)
	switch {
	case batch && stall:
		return struct {
			*tracedPolicy
			polBatch
			polStall
		}{t, polBatch{t}, polStall{t}}
	case batch:
		return struct {
			*tracedPolicy
			polBatch
		}{t, polBatch{t}}
	case stall:
		return struct {
			*tracedPolicy
			polStall
		}{t, polStall{t}}
	}
	return t
}
