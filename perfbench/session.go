package main

import (
	"hash"
	"hash/fnv"
	"time"

	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/memmodel"
	"grout/internal/sim"
	"grout/internal/workloads"
)

// session wraps whatever a program drives — a gateway client, an
// embedded controller — and measures it from outside: the wall time of
// every Launch, a hash of every array the program reads back, and the
// arrays it allocates so they can be freed when a job ends. With a
// recorder it also records a span per call.
type session struct {
	inner workloads.Session
	rec   *recorder // nil: untraced
	tid   uint8
	req   int64 // request id of this session's spans

	launchNs []int64 // wall time of each Launch, when timing
	timing   bool

	launches   int64 // successful Launch calls
	allocPages int64 // UVM pages spanned by the arrays allocated

	h      hash.Hash64
	hashNs int64 // time spent hashing, excluded from job times
	// lastRead is when the latest HostRead returned, and hashBefore the
	// hashing time before it: a job ends at its last read.
	lastRead   time.Time
	hashBefore int64
	arrays     []dag.ArrayID
}

func newSession(inner workloads.Session, rec *recorder, tid uint8) *session {
	return &session{inner: inner, rec: rec, tid: tid, h: fnv.New64a()}
}

// call brackets one inner call with a span when tracing.
func (s *session) call(o op, f func() (int64, error)) error {
	if s.rec == nil {
		_, err := f()
		return err
	}
	idx, start := s.rec.beginCall(o, s.tid, s.req)
	n, err := f()
	s.rec.endCall(o, idx, start, n)
	return err
}

func (s *session) NewArray(kind memmodel.ElemKind, n int64) (dag.ArrayID, error) {
	var id dag.ArrayID
	err := s.call(opNewArray, func() (int64, error) {
		var err error
		id, err = s.inner.NewArray(kind, n)
		return 0, err
	})
	if err == nil {
		s.arrays = append(s.arrays, id)
		s.allocPages += (memmodel.Bytes(n) * kind.Size()).Pages()
	}
	return id, err
}

func (s *session) Launch(kernel string, grid, block int, args ...core.ArgRef) error {
	t0 := time.Now()
	err := s.call(opLaunch, func() (int64, error) {
		return 0, s.inner.Launch(kernel, grid, block, args...)
	})
	if s.timing {
		s.launchNs = append(s.launchNs, int64(time.Since(t0)))
	}
	if err == nil {
		s.launches++
	}
	return err
}

// bufBytes is the size of an array's host buffer (0 in cost-only mode).
func (s *session) bufBytes(id dag.ArrayID) int64 {
	if b, ok := s.inner.Buffer(id).(interface{ Bytes() memmodel.Bytes }); ok {
		return int64(b.Bytes())
	}
	return 0
}

// HostRead reads the array back and folds its contents into the output
// hash. Hashing time is accumulated in hashNs so callers can leave it
// out of their timings.
func (s *session) HostRead(id dag.ArrayID) error {
	err := s.call(opHostRead, func() (int64, error) {
		return s.bufBytes(id), s.inner.HostRead(id)
	})
	if err != nil {
		return err
	}
	t0 := time.Now()
	s.lastRead, s.hashBefore = t0, s.hashNs
	if b, ok := s.inner.Buffer(id).(interface{ RawBytes() []byte }); ok {
		s.h.Write(b.RawBytes())
	}
	s.hashNs += int64(time.Since(t0))
	return nil
}

func (s *session) HostWrite(id dag.ArrayID) error {
	return s.call(opHostWrite, func() (int64, error) {
		return s.bufBytes(id), s.inner.HostWrite(id)
	})
}

func (s *session) Buffer(id dag.ArrayID) workloads.BufferLike { return s.inner.Buffer(id) }

func (s *session) Free(id dag.ArrayID) error {
	return s.call(opFree, func() (int64, error) { return 0, s.inner.Free(id) })
}

func (s *session) BuildKernel(src, signature string) (string, error) {
	var name string
	err := s.call(opBuildKernel, func() (int64, error) {
		var err error
		name, err = s.inner.BuildKernel(src, signature)
		return 0, err
	})
	return name, err
}

func (s *session) Elapsed() sim.VirtualTime {
	var t sim.VirtualTime
	_ = s.call(opSync, func() (int64, error) {
		t = s.inner.Elapsed()
		return 0, nil
	})
	return t
}

// Sync waits until everything the session submitted has run and reports
// its sticky error: Client.Sync on a gateway, AsyncGrout.Wait embedded.
func (s *session) Sync() error {
	return s.call(opSync, func() (int64, error) {
		switch in := s.inner.(type) {
		case interface{ Sync() error }:
			return 0, in.Sync()
		case interface{ Wait() error }:
			return 0, in.Wait()
		}
		return 0, nil
	})
}

// startJob resets the output hash and the array list.
func (s *session) startJob(req int64) {
	s.req = req
	s.h.Reset()
	s.hashNs = 0
	s.arrays = s.arrays[:0]
}

// jobTime is a job's wall time from start to its last HostRead, hashing
// left out.
func (s *session) jobTime(start time.Time) time.Duration {
	return s.lastRead.Sub(start) - time.Duration(s.hashBefore)
}

// freeJob frees every array allocated since startJob.
func (s *session) freeJob() error {
	for _, id := range s.arrays {
		if err := s.Free(id); err != nil {
			return err
		}
	}
	s.arrays = s.arrays[:0]
	return nil
}
