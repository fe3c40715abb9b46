package main

// oversub-model: repeated passes over the UVMBench grid — every workload
// of workloads.UVMSuite × footprint 0.5–4× one V100 × 1/2/4 workers —
// embedded and cost-only: no gateway, no sockets, one goroutine driving
// the controller. Every cell runs on a fresh fleet with the eager+lru
// memory policies and min-transfer-time placement, as
// workloads.UVMBenchSweep does. Modeled makespans are exact, so every
// pass must reproduce the first bit for bit; host time is spent in core,
// policy and gpusim only.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/gpusim"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/sim"
	"grout/internal/workloads"
)

const (
	osBlocks     = 8
	osCellTail   = 90
	osSubmitTail = 99
)

var (
	osFactors = workloads.DefaultSweepFactors()
	osWorkers = workloads.DefaultSweepWorkers()
)

type osCell struct {
	w       *workloads.Workload
	factor  float64
	workers int
	fp      memmodel.Bytes
}

type osResult struct {
	makespan sim.VirtualTime
	vertices int
	moved    memmodel.Bytes
	pages    pageStats
}

// osGrid lists the cells in grid order. The grid does not depend on the
// seed, so neither do its modeled figures; the seed orders the cells.
func osGrid() []osCell {
	suite := workloads.UVMSuite()
	var names []string
	for n := range suite {
		names = append(names, n)
	}
	sort.Strings(names)
	dev := gpusim.V100Spec("")
	var cells []osCell
	for _, n := range names {
		for _, f := range osFactors {
			fp := memmodel.Bytes(f * float64(dev.Memory))
			for _, w := range osWorkers {
				cells = append(cells, osCell{w: suite[n], factor: f, workers: w, fp: fp})
			}
		}
	}
	return cells
}

// osFleet builds a cell's cost-only fleet: one V100 and 512 GiB of host
// memory per worker on the paper's OCI network, eager+lru on every node.
func osFleet(workers int, rec *recorder) (*core.Controller, *core.LocalFabric, error) {
	spec := cluster.Spec{
		ControllerEgressBW:  1e9,
		ControllerIngressBW: 1e9,
		WorkerNICBW:         500e6,
		Latency:             sim.VirtualTime(250_000),
	}
	for i := 0; i < workers; i++ {
		spec.Workers = append(spec.Workers, gpusim.NodeSpec{
			Name:       fmt.Sprintf("uvm%d", i+1),
			Devices:    []gpusim.DeviceSpec{gpusim.V100Spec(fmt.Sprintf("uvm%d/gpu0", i+1))},
			HostMemory: 512 * memmodel.GiB,
		})
	}
	fab := core.NewLocalFabric(cluster.New(spec), kernels.StdRegistry(), false)
	for _, id := range fab.Workers() {
		if err := fab.Runtime(id).Node().UseMemoryPolicies("eager", "lru"); err != nil {
			return nil, nil, err
		}
	}
	ctl, err := newController(fab, policy.NewMinTransferTime(policy.Medium), core.Options{Pipeline: true}, rec)
	return ctl, fab, err
}

// checkInvariants runs gpusim's accounting check on every node. The
// check panics on some inconsistencies; those become errors here.
func checkInvariants(fab *core.LocalFabric) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	for _, id := range fab.Workers() {
		if err := fab.Runtime(id).Node().CheckInvariants(); err != nil {
			return fmt.Errorf("worker %v: %w", id, err)
		}
	}
	return nil
}

// osRunner runs cells and accumulates what they report.
type osRunner struct {
	cfg      config
	launchNs []int64
	launches int64
	tot      ctlTotals
	// cellNs is the host time of the latest cell, from fleet construction
	// to controller close; checks and counter reads are left out.
	cellNs int64
}

// run runs one cell. keep leaves the controller open for the caller to
// measure and close; otherwise it is closed before run returns.
func (r *osRunner) run(c osCell, req int64, measure bool, keep bool) (osResult, *core.Controller, error) {
	if r.cfg.rec != nil {
		r.cfg.rec.setReq(req)
	}
	t0 := time.Now()
	ctl, fab, err := osFleet(c.workers, r.cfg.rec)
	if err != nil {
		return osResult{}, nil, err
	}
	s := newSession(&workloads.AsyncGrout{Ctl: ctl}, r.cfg.rec, 1)
	s.req, s.timing = req, measure
	err = c.w.Build(s, workloads.Params{Footprint: c.fp, Blocks: osBlocks})
	if err == nil {
		err = s.Sync()
	}
	res := osResult{makespan: s.Elapsed()}
	if !keep {
		if cerr := ctl.Close(); err == nil {
			err = cerr
		}
	}
	r.cellNs = int64(time.Since(t0))
	res.vertices, res.moved = ctl.Graph().Size(), ctl.MovedBytes()
	if r.cfg.rec != nil {
		r.tot.add(ctl, s.launches)
	}
	if err == nil {
		err = checkInvariants(fab)
	}
	for _, id := range fab.Workers() {
		res.pages.add(fab.Runtime(id).Node())
	}
	r.launchNs = append(r.launchNs, s.launchNs...)
	r.launches += s.launches
	return res, ctl, err
}

func (c osCell) String() string {
	return fmt.Sprintf("%s %.1fx %dw", c.w.Name, c.factor, c.workers)
}

func runOversub(cfg config) (*outcome, error) {
	o := newOutcome()
	cells := osGrid()
	var suite []*workloads.Workload
	for i := 0; i < len(cells); i += len(osFactors) * len(osWorkers) {
		suite = append(suite, cells[i].w)
	}
	ks, err := kernelsOf(suite, workloads.Params{Footprint: cells[0].fp, Blocks: osBlocks})
	if err != nil {
		return nil, err
	}

	goBefore := runtime.NumGoroutine()
	var setups, builds []time.Duration
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		ctl, _, err := osFleet(osWorkers[len(osWorkers)-1], cfg.rec)
		if err != nil {
			return nil, err
		}
		b, err := buildCold(&workloads.AsyncGrout{Ctl: ctl}, ks)
		if cerr := ctl.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		builds = append(builds, b)
	}
	o.e2e["setup_s"] = medianSeconds(setups)
	o.layer["minicuda.build_cold_ms"] = medianSeconds(builds) * 1e3

	r := &osRunner{cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.seed))
	// Warm-up, left out of every timing: the first pass, which is also
	// the reference every later pass must reproduce exactly.
	ref := make([]osResult, len(cells))
	var makespans []float64
	var moved int64
	var pages pageStats
	var fpPages int64
	for _, i := range rng.Perm(len(cells)) {
		o.attempted++
		res, _, err := r.run(cells[i], int64(i), false, false)
		if err != nil {
			o.fail(1, "cell %v: %v", cells[i], err)
		}
		ref[i] = res
	}
	for i, c := range cells {
		makespans = append(makespans, ref[i].makespan.Seconds())
		moved += int64(ref[i].moved)
		pages.migratedIn += ref[i].pages.migratedIn
		pages.evicted += ref[i].pages.evicted
		pages.writtenBack += ref[i].pages.writtenBack
		fpPages += c.fp.Pages()
		o.identity = append(o.identity, fmt.Sprintf("%v makespan=%d vertices=%d moved=%d %v",
			c, ref[i].makespan, ref[i].vertices, ref[i].moved, ref[i].pages))
		// A workload's CE count must not depend on the fleet size.
		if base := i - i%len(osWorkers); ref[i].vertices != ref[base].vertices {
			o.fail(1, "cell %v: %d CEs, but %d on %d workers", c, ref[i].vertices, ref[base].vertices, cells[base].workers)
		}
	}
	o.e2e["sim_makespan_geomean_s"] = geomean(makespans)

	r.launchNs, r.launches = nil, 0
	var cellNs, startAt, doneAt, cellCEs []int64
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for pass := int64(1); time.Now().Before(deadline); pass++ {
		for _, i := range rng.Perm(len(cells)) {
			if !time.Now().Before(deadline) {
				break
			}
			o.attempted++
			n := r.launches
			res, _, err := r.run(cells[i], pass<<16|int64(i), true, false)
			switch {
			case err != nil:
				o.fail(1, "cell %v: %v", cells[i], err)
			case res != ref[i]:
				o.fail(1, "cell %v: pass %d modeled %d ns, %v; first pass %d ns, %v",
					cells[i], pass+1, res.makespan, res.pages, ref[i].makespan, ref[i].pages)
			default:
				cellNs = append(cellNs, r.cellNs)
				done := int64(time.Since(start))
				startAt = append(startAt, done-r.cellNs)
				doneAt = append(doneAt, done)
				cellCEs = append(cellCEs, r.launches-n)
			}
		}
	}
	wall := time.Since(start)
	o.e2e["ce_per_s"] = sliceRate(startAt, doneAt, cellCEs, wall)
	o.e2e["req_per_s"] = sliceRate(startAt, doneAt, ones(len(doneAt)), wall)
	o.timing("launch_p50_us", "launch_tail_us", r.launchNs, 1e3, osSubmitTail)
	o.timing("req_p50_ms", "req_tail_ms", cellNs, 1e6, osCellTail)

	// Heap pass, untimed: live heap a finished cell's stack retains, per
	// CE, with its controller still open.
	var grown, ces int64
	for i, c := range cells {
		heap0 := cfg.rec.liveHeap()
		n := r.launches
		_, ctl, err := r.run(c, -1-int64(i), false, true)
		if err == nil {
			grown += cfg.rec.liveHeap() - heap0
			ces += r.launches - n
		}
		if ctl != nil {
			_ = ctl.Close()
		}
	}
	o.e2e["retained_bytes_per_ce"] = ratio(float64(grown), float64(ces))

	if cfg.rec != nil {
		o.layer["core.submit_self_ms"] = cfg.rec.sessionSelf() / 1e6
		o.setLayers(cfg.rec, r.tot, false)
		o.layer["core.moved_bytes"] = float64(moved)
		o.setPages(pages, fpPages)
	}
	o.layer["runtime.goroutines_delta"] = float64(goroutinesDelta(goBefore))
	return o, nil
}
