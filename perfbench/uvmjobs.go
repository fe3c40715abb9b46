package main

// uvm-jobs: one tenant runs whole numeric jobs back to back through
// grout.Dial → gateway → controller (min-transfer-time, pipelined) → two
// in-process TCP workers (framed wire) → mini-CUDA kernels. The job
// order is a seeded rotation over host-write-heavy paper jobs (bs, mv),
// device-generated, read-back UVMBench jobs (spmv, pagerank, stencil2d)
// and one atomics/serial-fallback job (kmeans). Admission sits idle with
// one tenant; the time goes to bulk transfer, kernels and placement.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"grout"
	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/gpusim"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/minicuda"
	"grout/internal/policy"
	"grout/internal/server"
	"grout/internal/sim"
	"grout/internal/transport"
	"grout/internal/workloads"
)

const (
	uvmWorkers   = 2
	uvmFootprint = 2 * memmodel.MiB
	uvmJobTail   = 75
	uvmLaunchTl  = 75
)

// uvmKinds are the job kinds of the rotation. An odd count puts the
// median job inside one kind's cluster of durations rather than on the
// edge between two, which keeps job_p50_ms steady from run to run.
var uvmKinds = []string{"bs", "mv", "spmv", "pagerank", "stencil2d", "triad", "kmeans"}

func uvmWorkload(name string) *workloads.Workload {
	if w, ok := workloads.Suite()[name]; ok {
		return w
	}
	return workloads.UVMSuite()[name]
}

// uvmJob is one job kind with its inputs and reference output.
type uvmJob struct {
	w      *workloads.Workload
	p      workloads.Params
	digest uint64  // hash of every array the job reads back
	ces    int64   // launches the job issues
	model  float64 // modeled makespan on the embedded controller, s
}

// uvmJobs computes each job kind's reference output on an embedded
// numeric controller, untimed. The jobs do not depend on the seed, which
// orders them.
func uvmJobs() ([]*uvmJob, error) {
	var jobs []*uvmJob
	for _, k := range uvmKinds {
		j := &uvmJob{w: uvmWorkload(k), p: workloads.Params{Footprint: uvmFootprint}}
		fab := core.NewLocalFabric(cluster.New(cluster.PaperSpec(uvmWorkers)), kernels.StdRegistry(), true)
		ctl := core.NewController(fab, policy.NewMinTransferTime(policy.Medium), gatewayCore())
		s := newSession(&workloads.AsyncGrout{Ctl: ctl}, nil, 0)
		err := j.w.Build(s, j.p)
		if err == nil {
			err = s.Sync()
		}
		j.digest, j.ces, j.model = s.h.Sum64(), s.launches, s.Elapsed().Seconds()
		ctl.Close()
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", k, err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// errDiscovered stops a workload build once its kernels are known.
var errDiscovered = errors.New("kernels discovered")

// discovery is a Session that records BuildKernel requests and refuses
// the first allocation: every workload builds its kernels first.
type discovery struct{ builds [][2]string }

func (d *discovery) NewArray(memmodel.ElemKind, int64) (dag.ArrayID, error) { return 0, errDiscovered }
func (d *discovery) Launch(string, int, int, ...core.ArgRef) error          { return errDiscovered }
func (d *discovery) HostRead(dag.ArrayID) error                             { return errDiscovered }
func (d *discovery) HostWrite(dag.ArrayID) error                            { return errDiscovered }
func (d *discovery) Buffer(dag.ArrayID) workloads.BufferLike                { return nil }
func (d *discovery) Free(dag.ArrayID) error                                 { return errDiscovered }
func (d *discovery) Elapsed() sim.VirtualTime                               { return 0 }
func (d *discovery) BuildKernel(src, sig string) (string, error) {
	d.builds = append(d.builds, [2]string{src, sig})
	return "", nil
}

// kernelsOf lists the mini-CUDA kernels the workloads build.
func kernelsOf(ws []*workloads.Workload, p workloads.Params) ([][2]string, error) {
	d := &discovery{}
	for _, w := range ws {
		if err := w.Build(d, p); !errors.Is(err, errDiscovered) {
			return nil, fmt.Errorf("kernel discovery %s: %v", w.Name, err)
		}
	}
	return d.builds, nil
}

// buildCold compiles kernels through b with the process-wide compile
// cache emptied first, so the first build is cold. Returns the time.
func buildCold(b interface {
	BuildKernel(src, sig string) (string, error)
}, ks [][2]string) (time.Duration, error) {
	minicuda.FlushCompileCache()
	t0 := time.Now()
	for _, k := range ks {
		if _, err := b.BuildKernel(k[0], k[1]); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

type uvmStack struct {
	workers []*transport.WorkerServer
	fab     *transport.TCPFabric
	ctl     *core.Controller
	gw      *server.Gateway
	client  *server.Client
	s       *session
	build   time.Duration
}

func startUVM(cfg config, ks [][2]string) (*uvmStack, error) {
	st := &uvmStack{}
	var addrs []string
	for i := 0; i < uvmWorkers; i++ {
		w, err := transport.NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec(fmt.Sprintf("worker%d", i+1)), nil)
		if err != nil {
			st.close()
			return nil, err
		}
		st.workers = append(st.workers, w)
		addrs = append(addrs, w.Addr())
	}
	var err error
	if st.fab, err = transport.DialWith(addrs, transport.DialOptions{}); err != nil {
		st.close()
		return nil, err
	}
	if st.ctl, err = newController(st.fab, policy.NewMinTransferTime(policy.Medium), gatewayCore(), cfg.rec); err != nil {
		st.close()
		return nil, err
	}
	if st.gw, err = server.New(st.ctl, "127.0.0.1:0", server.Options{}); err != nil {
		st.close()
		return nil, err
	}
	if st.client, err = grout.Dial(st.gw.Addr(), "jobs"); err != nil {
		st.close()
		return nil, err
	}
	st.s = newSession(st.client, cfg.rec, 1)
	if st.build, err = buildCold(st.s, ks); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *uvmStack) close() {
	if st.client != nil {
		_ = st.client.Close()
	}
	if st.gw != nil {
		_ = st.gw.Close()
	}
	if st.ctl != nil {
		_ = st.ctl.Close()
	}
	if st.fab != nil {
		_ = st.fab.Close()
	}
	for _, w := range st.workers {
		_ = w.Close()
	}
}

// kernelStats sums the workers' executed-kernel counts.
func (st *uvmStack) kernelStats() (int64, error) {
	var n int64
	for _, w := range st.fab.Workers() {
		ws, err := st.fab.Stats(w)
		if err != nil {
			return 0, err
		}
		n += int64(ws.Kernels)
	}
	return n, nil
}

func runUVMJobs(cfg config) (*outcome, error) {
	o := newOutcome()
	jobs, err := uvmJobs()
	if err != nil {
		return nil, err
	}
	var models []float64
	var ws []*workloads.Workload
	for _, j := range jobs {
		models = append(models, j.model)
		ws = append(ws, j.w)
	}
	o.e2e["sim_makespan_geomean_s"] = geomean(models)
	ks, err := kernelsOf(ws, workloads.Params{Footprint: uvmFootprint})
	if err != nil {
		return nil, err
	}

	goBefore := runtime.NumGoroutine()
	var setups, builds []time.Duration
	var st *uvmStack
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		s, err := startUVM(cfg, ks)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		builds = append(builds, s.build)
		if r < setupReps-1 {
			s.close()
		} else {
			st = s
		}
	}
	o.e2e["setup_s"] = medianSeconds(setups)
	o.layer["minicuda.build_cold_ms"] = medianSeconds(builds) * 1e3

	rng := rand.New(rand.NewSource(cfg.seed))
	var id int64
	var jobNs []int64
	byKind := map[string][]float64{}
	var verifiedCEs, verified int64
	// runJob runs one job, checks its output and frees its arrays.
	runJob := func(j *uvmJob, measure bool) {
		id++
		o.attempted++
		if cfg.rec != nil {
			cfg.rec.setReq(id)
		}
		st.s.startJob(id)
		st.s.timing = measure
		ces := st.s.launches
		t0 := time.Now()
		err := j.w.Build(st.s, j.p)
		d := st.s.jobTime(t0)
		ces = st.s.launches - ces
		switch {
		case err != nil:
			o.fail(1, "job %d %s: %v", id, j.w.Name, err)
		case st.s.h.Sum64() != j.digest || ces != j.ces:
			o.fail(1, "job %d %s: output hash %x, %d CEs; reference %x, %d CEs",
				id, j.w.Name, st.s.h.Sum64(), ces, j.digest, j.ces)
		case measure:
			jobNs = append(jobNs, int64(d))
			byKind[j.w.Name] = append(byKind[j.w.Name], float64(d)/1e6)
			verifiedCEs += ces
			verified++
		}
		if err := st.s.freeJob(); err != nil {
			o.fail(0, "job %d %s: free: %v", id, j.w.Name, err)
		}
	}

	// Warm-up, left out of every figure: one job of each kind.
	for _, j := range jobs {
		runJob(j, false)
	}
	heap0 := cfg.rec.liveHeap()
	// Whole passes, each job kind once in a seeded order, so every run
	// measures the same mix; the pass under way at the deadline finishes.
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		for _, k := range rng.Perm(len(jobs)) {
			runJob(jobs[k], true)
		}
	}
	wall := time.Since(start)
	heap1 := cfg.rec.liveHeap()
	snap := st.gw.Snapshot()

	o.e2e["ce_per_s"] = float64(verifiedCEs) / wall.Seconds()
	o.e2e["req_per_s"] = float64(verified) / wall.Seconds()
	o.e2e["retained_bytes_per_ce"] = ratio(float64(heap1-heap0), float64(verifiedCEs))
	o.timing("launch_p50_us", "launch_tail_us", st.s.launchNs, 1e3, uvmLaunchTl)
	o.timing("req_p50_ms", "req_tail_ms", jobNs, 1e6, uvmJobTail)
	for _, j := range jobs {
		o.identity = append(o.identity, fmt.Sprintf("%s %x", j.w.Name, j.digest))
		fmt.Printf("# job %s: %d CEs, p50 %.3f ms over %d runs\n", j.w.Name, j.ces, median(byKind[j.w.Name]), len(byKind[j.w.Name]))
	}

	if cfg.rec != nil {
		o.setServer(cfg.rec, snap)
		var tot ctlTotals
		tot.add(st.ctl, st.s.launches)
		o.setLayers(cfg.rec, tot, true)
		kernels, err := st.kernelStats()
		if err != nil {
			return nil, err
		}
		o.layer["kernels.launches"] = float64(kernels)
		// TCPFabric.Stats reports the workers' modeled makespan, not host
		// time, so kernel time is the wall time of launch round trips.
		o.layer["kernels.exec_ms"] = float64(cfg.rec.busyNs(opFabLaunch)) / 1e6
		var pages pageStats
		for _, w := range st.workers {
			pages.add(w.Runtime().Node())
		}
		o.setPages(pages, st.s.allocPages)
	}
	st.close()
	o.layer["runtime.goroutines_delta"] = float64(goroutinesDelta(goBefore))
	return o, nil
}
