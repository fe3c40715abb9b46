package main

// gw-stream: two tenants, each a sequential program with its own
// grout.Dial session, stream batches of gwBatch back-to-back axpy
// launches y += alpha*x over small arrays and Sync after each batch (a
// closed loop: each waits for every reply), uploading a fresh operand x
// at the start of every epoch of gwEpoch batches. The stack is
// server.New over a pipelined controller with the default optimizer
// window on grout-gateway's default fleet: four in-process simulated
// workers, round-robin, numeric. Nearly all per-CE work is gateway
// admission, controller scheduling and DAG bookkeeping.
//
// Every launch of an epoch reads the x written at its start, so each
// launch's dependency bookkeeping may walk back to that write: a walk
// whose cost grows with the launches since the write (ROADMAP item 1)
// costs here in proportion to the epoch length. A stream that never
// rewrites x slows down for as long as it runs; epochs keep that cost in
// every figure while every run measures the same steady state.
//
// gwEpoch is 64 because throughput falls off a cliff between 64 and 128
// batches (13,300 against 8,500–10,600 CE/s on one seed), about where
// the two tenants' walks outgrow a core's 2 MiB L2 cache on the Xeon the
// benchmark was sized on. Past the cliff, runs of one seed landed
// anywhere in that range: the figure followed the host, not the program.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"grout"
	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/server"
	"grout/internal/workloads"
)

const (
	gwTenants = 2
	gwArrays  = 4    // y arrays per tenant; one shared x
	gwN       = 4096 // elements per array
	gwBatch   = 64   // launches between Syncs
	gwEpoch   = 64   // batches between uploads of x
	gwWorkers = 4
	// gwReplayBatches is the prefix of each tenant's stream replayed on
	// the embedded controller for the modeled makespan.
	gwReplayBatches = 16
	setupReps       = 41
	// gwSegment is the measured seconds of each fresh stack (see
	// runGWStream).
	gwSegment = 5.0
	// Tail percentiles, fixed per statistic (see outcome.timing).
	gwLaunchTail = 99
	gwBatchTail  = 90
)

// gwAlphas are the axpy coefficients. Integers keep every value exact in
// float32, so the closed form can be checked bit for bit.
var gwAlphas = [...]float64{-2, -1, 1, 2}

// gwStream is one tenant's seeded operand scales and launch sequence,
// and the closed form of its arrays.
type gwStream struct {
	rng    *rand.Rand
	c      float64           // current epoch's x = c*x0
	order  []int             // round-robin order of the ys
	sums   [gwArrays]float64 // sum of alpha*c applied to each y
	writes [gwArrays]int64   // launches that wrote each y
}

func newGWStream(seed int64, tenant int) *gwStream {
	rng := rand.New(rand.NewSource(seed*1000 + int64(tenant)))
	return &gwStream{rng: rng, order: rng.Perm(gwArrays)}
}

// next draws launch k of a batch: which y, and alpha. Every batch
// visits the ys round robin, in an order drawn once per tenant, so every
// seed gives a stream of the same shape; the seed sets the order and the
// values.
func (g *gwStream) next(k int) (int, float64) {
	return g.order[k%gwArrays], gwAlphas[g.rng.Intn(len(gwAlphas))]
}

// upload draws the next epoch's operand scale c and writes x = c*x0.
func (g *gwStream) upload(s workloads.Session, x dag.ArrayID) error {
	g.c = float64(1 + g.rng.Intn(2))
	buf := s.Buffer(x)
	for i := 0; i < gwN; i++ {
		buf.Set(i, g.c*gwX(i))
	}
	return s.HostWrite(x)
}

func gwX(i int) float64     { return float64(1 + i%2) }
func gwY0(j, i int) float64 { return float64((i + j) % 5) }

// gwArraysOf allocates a tenant's arrays and initializes the ys.
func gwArraysOf(s workloads.Session) (x dag.ArrayID, ys [gwArrays]dag.ArrayID, err error) {
	if x, err = s.NewArray(memmodel.Float32, gwN); err != nil {
		return
	}
	for j := range ys {
		if ys[j], err = s.NewArray(memmodel.Float32, gwN); err != nil {
			return
		}
		for i := 0; i < gwN; i++ {
			s.Buffer(ys[j]).Set(i, gwY0(j, i))
		}
		if err = s.HostWrite(ys[j]); err != nil {
			return
		}
	}
	return
}

// gwLaunch issues one axpy: y += alpha*x.
func gwLaunch(s workloads.Session, y, x dag.ArrayID, alpha float64) error {
	return s.Launch("axpy", gwN/256, 256, core.ArrRef(y), core.ArrRef(x),
		core.ScalarRef(alpha), core.ScalarRef(gwN))
}

// gwCheck reads every y back and compares it with its closed form. It
// returns the launches whose array came back wrong.
func gwCheck(s workloads.Session, ys [gwArrays]dag.ArrayID, st *gwStream) (int64, error) {
	var wrong int64
	for j, y := range ys {
		if err := s.HostRead(y); err != nil {
			return 0, err
		}
		buf := s.Buffer(y)
		for i := 0; i < gwN; i++ {
			if buf.At(i) != gwY0(j, i)+st.sums[j]*gwX(i) {
				wrong += st.writes[j]
				break
			}
		}
	}
	return wrong, nil
}

// gwFleet builds grout-gateway's default simulated fleet.
func gwFleet(rec *recorder) (*core.Controller, *core.LocalFabric, error) {
	fab := core.NewLocalFabric(cluster.New(cluster.PaperSpec(gwWorkers)), kernels.StdRegistry(), true)
	ctl, err := newController(fab, policy.NewRoundRobin(), gatewayCore(), rec)
	return ctl, fab, err
}

// gwReplay runs the first gwReplayBatches of a tenant's stream on an
// embedded controller over the same fleet and returns the modeled
// makespan in seconds. Over the gateway the modeled time depends on how
// the two tenants interleave in wall-clock time; the replay does not.
func gwReplay(seed int64, tenant int) (float64, error) {
	ctl, _, err := gwFleet(nil)
	if err != nil {
		return 0, err
	}
	defer ctl.Close()
	s := &workloads.AsyncGrout{Ctl: ctl}
	st := newGWStream(seed, tenant)
	x, ys, err := gwArraysOf(s)
	if err != nil {
		return 0, err
	}
	for b := 0; b < gwReplayBatches; b++ {
		if b%gwEpoch == 0 {
			if err := st.upload(s, x); err != nil {
				return 0, err
			}
		}
		for k := 0; k < gwBatch; k++ {
			j, a := st.next(k)
			if err := gwLaunch(s, ys[j], x, a); err != nil {
				return 0, err
			}
			st.sums[j] += a * st.c
			st.writes[j]++
		}
		if err := s.Wait(); err != nil {
			return 0, err
		}
	}
	if wrong, err := gwCheck(s, ys, st); err != nil || wrong > 0 {
		return 0, fmt.Errorf("gw-stream replay: %d launches wrong (%v)", wrong, err)
	}
	return s.Elapsed().Seconds(), nil
}

type gwTenant struct {
	s  *session
	x  dag.ArrayID
	ys [gwArrays]dag.ArrayID
	st *gwStream

	batches           int64
	batchNs           []int64
	batchLaunchUs     []float64 // measured batches: mean Launch time, µs
	launched          int64     // launches acked in measured batches
	epochT0           time.Time // start of the epoch under way
	epochCEs          int64     // launches acked in the epoch under way
	epochCEPerS       []float64 // measured epochs: launches per second
	epochBatchPerS    []float64 // measured epochs: batches per second
	attempted, errors int64     // all phases
	err               error
	errs              []string
}

// run streams batches until deadline and then to the end of the epoch
// under way, so every phase covers whole epochs; measure records the
// batches and epochs.
func (t *gwTenant) run(deadline time.Time, measure bool) {
	t.s.timing = measure
	for t.err == nil && (time.Now().Before(deadline) || t.batches%gwEpoch != 0) {
		t.batches++
		t.s.req = int64(t.s.tid)<<32 | t.batches
		t0 := time.Now()
		if (t.batches-1)%gwEpoch == 0 {
			t.epochT0, t.epochCEs = t0, 0
			if err := t.st.upload(t.s, t.x); err != nil {
				t.attempted++ // the upload is the operation that failed
				t.stop(err, 1)
				return
			}
		}
		var n int64 // launches acked in this batch
		l0 := len(t.s.launchNs)
		for k := 0; k < gwBatch; k++ {
			j, a := t.st.next(k)
			t.attempted++
			if err := gwLaunch(t.s, t.ys[j], t.x, a); err != nil {
				t.errors++
				if len(t.errs) < 5 {
					t.errs = append(t.errs, err.Error())
				}
				if errors.Is(err, core.ErrShedded) {
					continue // refused, not applied: retryable overload
				}
				t.stop(err, n)
				return
			}
			t.st.sums[j] += a * t.st.c
			t.st.writes[j]++
			n++
		}
		// The gateway acks a launch before it runs, so a CE that fails on
		// a worker surfaces as the session's sticky error at a later call:
		// this Sync or a later Launch.
		if err := t.s.Sync(); err != nil {
			t.stop(err, n)
			return
		}
		if measure {
			now := time.Now()
			t.batchNs = append(t.batchNs, int64(now.Sub(t0)))
			t.batchLaunchUs = append(t.batchLaunchUs, mean(scaled(t.s.launchNs[l0:], 1e3)))
			t.launched += n
			t.epochCEs += n
			if t.batches%gwEpoch == 0 {
				d := now.Sub(t.epochT0).Seconds()
				t.epochCEPerS = append(t.epochCEPerS, float64(t.epochCEs)/d)
				t.epochBatchPerS = append(t.epochBatchPerS, gwEpoch/d)
			}
		}
	}
}

// stop ends the tenant's stream on err. The n launches acked since the
// last successful Sync are unconfirmed and count as failed; the arrays
// are not checked after a stop.
func (t *gwTenant) stop(err error, n int64) {
	t.err = err
	t.errors += n
}

type gwStack struct {
	ctl     *core.Controller
	fab     *core.LocalFabric
	gw      *server.Gateway
	tenants []*gwTenant
}

func startGW(cfg config) (*gwStack, error) {
	ctl, fab, err := gwFleet(cfg.rec)
	if err != nil {
		return nil, err
	}
	return serveGW(&gwStack{ctl: ctl, fab: fab}, cfg)
}

// serveGW puts a gateway in front of st.ctl and dials the tenants, each
// allocating and writing its arrays.
func serveGW(st *gwStack, cfg config) (*gwStack, error) {
	var err error
	if st.gw, err = server.New(st.ctl, "127.0.0.1:0", server.Options{}); err != nil {
		st.close()
		return nil, err
	}
	for i := 0; i < gwTenants; i++ {
		c, err := grout.Dial(st.gw.Addr(), fmt.Sprintf("tenant-%d", i))
		if err != nil {
			st.close()
			return nil, err
		}
		t := &gwTenant{s: newSession(c, cfg.rec, uint8(1+i)), st: newGWStream(cfg.seed, i)}
		st.tenants = append(st.tenants, t)
		if t.x, t.ys, err = gwArraysOf(t.s); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// tally adds every tenant's launches and failures to o and checks the
// arrays of every tenant that ran to the end against their closed form.
func (st *gwStack) tally(o *outcome) {
	for _, t := range st.tenants {
		o.attempted += t.attempted
		o.failed += t.errors
		for _, e := range t.errs {
			o.fail(0, "tenant %d launch: %s", t.s.tid-1, e)
		}
		if t.err != nil {
			o.fail(0, "tenant %d stopped: %v", t.s.tid-1, t.err)
			continue
		}
		wrong, err := gwCheck(t.s, t.ys, t.st)
		if err != nil {
			o.fail(t.attempted, "tenant %d read-back: %v", t.s.tid-1, err)
		} else if wrong > 0 {
			o.fail(wrong, "tenant %d: %d launches landed on arrays that do not match the closed form", t.s.tid-1, wrong)
		}
	}
}

// close ends the sessions first, then the gateway, then the controller.
func (st *gwStack) close() {
	for _, t := range st.tenants {
		_ = t.s.inner.(*server.Client).Close()
	}
	if st.gw != nil {
		_ = st.gw.Close()
	}
	_ = st.ctl.Close()
}

// phase runs every tenant until deadline and waits for all of them.
func (st *gwStack) phase(deadline time.Time, measure bool) {
	var wg sync.WaitGroup
	for _, t := range st.tenants {
		wg.Add(1)
		go func(t *gwTenant) {
			defer wg.Done()
			t.run(deadline, measure)
		}(t)
	}
	wg.Wait()
}

// sampleQueue polls the gateway's admission backlog until stop closes
// and stores the largest shard queue depth seen. A snapshot sorts every
// tenant's admission-wait reservoir, so polling faster than every 20 ms
// slows the gateway it observes.
func sampleQueue(gw *server.Gateway, stop <-chan struct{}, out *int) {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			for _, sh := range gw.Snapshot().Shards {
				if sh.QueueDepth > *out {
					*out = sh.QueueDepth
				}
			}
		}
	}
}

func runGWStream(cfg config) (*outcome, error) {
	o := newOutcome()
	var spans []float64
	for i := 0; i < gwTenants; i++ {
		m, err := gwReplay(cfg.seed, i)
		if err != nil {
			return nil, err
		}
		spans = append(spans, m)
	}
	o.e2e["sim_makespan_geomean_s"] = geomean(spans)
	o.identity = append(o.identity, fmt.Sprint("replay makespans ", spans))

	goBefore := runtime.NumGoroutine()
	var setups []time.Duration
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		s, err := startGW(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		s.close()
	}
	o.e2e["setup_s"] = medianSeconds(setups)

	// The run is measured on a series of fresh stacks, gwSegment seconds
	// each, so the live heap stays near 100 MB. ROADMAP item 1's leak
	// (retained_bytes_per_ce) grows it by about 1.2 KB per CE: one stack
	// run for 30 s reaches 400 MB, where a single GC mark takes 3 s, and
	// whether the last long mark fell inside the window spread ce_per_s
	// over 10,300–12,500 CE/s and launch_tail_us over 530–900 µs across
	// five seeds, against 12,400–13,700 and 480–560 on 5 s stacks.
	segs := max(1, int(math.Round(cfg.seconds/gwSegment)))
	seg := cfg.seconds / float64(segs)
	var g gwTotals
	for i := 0; i < segs; i++ {
		if err := g.segment(cfg, seg, o); err != nil {
			return nil, err
		}
	}

	// Each tenant's rate is the median over its epochs, so each figure
	// covers whole epochs and a stall in part of the run does not set it.
	for i := range g.epochCEPerS {
		o.e2e["ce_per_s"] += median(g.epochCEPerS[i])
		o.e2e["req_per_s"] += median(g.epochBatchPerS[i])
	}
	o.e2e["retained_bytes_per_ce"] = ratio(float64(g.grown), float64(g.launched))
	o.timing("launch_p50_us", "launch_tail_us", g.launchNs, 1e3, gwLaunchTail)
	// Launch times have two modes, about 18 and 38 µs, in near-even
	// shares that shift with the host, so their median jumped between 24
	// and 37 µs from run to run. The p50 is taken over sync batches of
	// each batch's mean Launch time instead, which moves with the
	// shares, not across the gap between the modes.
	o.e2e["launch_p50_us"] = median(g.batchLaunchUs)
	o.stats["launch_p50_us"] = sampleStat{samples: len(g.batchLaunchUs)}
	o.timing("req_p50_ms", "req_tail_ms", g.batchNs, 1e6, gwBatchTail)

	if cfg.rec != nil {
		o.setServer(cfg.rec, g.snap)
		o.layer["server.queue_depth_max"] = float64(g.qmax)
		o.setLayers(cfg.rec, g.tot, false)
		o.layer["kernels.exec_ms"] = o.layer["gpusim.launch_busy_ms"]
		o.setPages(g.pages, g.allocPages)
	}
	o.layer["runtime.goroutines_delta"] = float64(goroutinesDelta(goBefore))
	return o, nil
}

// gwTotals accumulates the measured figures of a run's stacks.
type gwTotals struct {
	epochCEPerS, epochBatchPerS [gwTenants][]float64 // per tenant
	launchNs, batchNs           []int64
	batchLaunchUs               []float64
	launched, grown             int64 // launches measured; live heap growth

	// Traced runs only.
	snap       server.Stats // every stack's tenants
	qmax       int
	tot        ctlTotals
	pages      pageStats
	allocPages int64
}

// segment starts a fresh stack, warms it up, measures it for seconds,
// checks its outputs into o and closes it.
func (g *gwTotals) segment(cfg config, seconds float64, o *outcome) error {
	st, err := startGW(cfg)
	if err != nil {
		return err
	}
	defer st.close()

	// Warm-up, left out of every figure: a tenth of the segment, at
	// least half a second, then to the end of the epoch under way.
	warm := math.Max(0.5, seconds/10)
	st.phase(time.Now().Add(time.Duration(warm*float64(time.Second))), false)
	heap0 := cfg.rec.liveHeap()

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if cfg.rec != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			sampleQueue(st.gw, stop, &g.qmax)
		}()
	}
	st.phase(time.Now().Add(time.Duration(seconds*float64(time.Second))), true)
	close(stop)
	sampler.Wait()
	g.grown += cfg.rec.liveHeap() - heap0
	// Read the gateway's counters before any session closes: torn-down
	// sessions vanish from the snapshot.
	snap := st.gw.Snapshot()

	var ces int64
	for i, t := range st.tenants {
		g.launched += t.launched
		ces += t.s.launches
		g.allocPages += t.s.allocPages
		g.launchNs = append(g.launchNs, t.s.launchNs...)
		g.batchNs = append(g.batchNs, t.batchNs...)
		g.batchLaunchUs = append(g.batchLaunchUs, t.batchLaunchUs...)
		g.epochCEPerS[i] = append(g.epochCEPerS[i], t.epochCEPerS...)
		g.epochBatchPerS[i] = append(g.epochBatchPerS[i], t.epochBatchPerS...)
	}
	st.tally(o)

	if cfg.rec != nil {
		g.snap.Tenants = append(g.snap.Tenants, snap.Tenants...)
		g.tot.add(st.ctl, ces)
		for _, w := range st.fab.Workers() {
			g.pages.add(st.fab.Runtime(w).Node())
		}
	}
	return nil
}
