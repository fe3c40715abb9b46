package main

import (
	"encoding/json"
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/gpusim"
	"grout/internal/kernels"
	"grout/internal/policy"
	"grout/internal/sim"
	"grout/internal/transport"
	"grout/internal/workloads"
)

// oddFabric has a shape the wrapper does not cover.
type oddFabric struct {
	core.Fabric
	core.StallPredictor
}

type policyShape struct{ batch, stall bool }

func policyShapeOf(p policy.Policy) policyShape {
	var s policyShape
	_, s.batch = p.(policy.BatchAssigner)
	_, s.stall = p.(policy.StallAware)
	return s
}

// The traced wrappers must expose exactly the optional interfaces of
// what they wrap, or the controller would take other code paths.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	local := core.NewLocalFabric(cluster.New(cluster.PaperSpec(2)), kernels.StdRegistry(), false)
	w, err := transport.NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("w1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tcp, err := transport.Dial([]string{w.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	rec := newRecorder(true)
	for _, f := range []core.Fabric{local, tcp} {
		wrapped, err := wrapFabric(f, rec)
		if err != nil {
			t.Fatalf("%T: %v", f, err)
		}
		if got, want := shapeOf(wrapped), shapeOf(f); got != want {
			t.Errorf("%T: wrapper exposes %+v, inner %+v", f, got, want)
		}
	}
	if _, err := wrapFabric(oddFabric{local, local}, rec); err == nil {
		t.Error("wrapping an uncovered fabric shape succeeded")
	}

	for _, p := range []policy.Policy{policy.NewRoundRobin(), policy.NewMinTransferTime(policy.Medium),
		policy.NewMinStallTime(), policy.Restrict(policy.NewMinTransferTime(policy.Medium), nil)} {
		if got, want := policyShapeOf(wrapPolicy(p, rec)), policyShapeOf(p); got != want {
			t.Errorf("%T: wrapper exposes %+v, inner %+v", p, got, want)
		}
	}
}

// Tracing must change no output: uvm-jobs jobs must hash to their
// references in both runs, and oversub-model's modeled makespans and
// gpusim counters must match cell for cell.
func TestTracedRunChangesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads twice")
	}
	for _, name := range []string{"uvm-jobs", "oversub-model"} {
		w := workloadsByName[name]
		cfg := config{seed: 7, seconds: 0.3}
		base, err := w.run(cfg)
		if err != nil {
			t.Fatalf("%s untraced: %v", name, err)
		}
		cfg.rec = newRecorder(w.linked)
		tr, err := w.run(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		for _, o := range []*outcome{base, tr} {
			if o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s: %d of %d failed: %v", name, o.failed, o.attempted, o.failures)
			}
		}
		if len(base.identity) == 0 || len(base.identity) != len(tr.identity) {
			t.Fatalf("%s: identity lengths %d and %d", name, len(base.identity), len(tr.identity))
		}
		for i := range base.identity {
			if base.identity[i] != tr.identity[i] {
				t.Errorf("%s: untraced %q, traced %q", name, base.identity[i], tr.identity[i])
			}
		}
		if a, b := base.e2e["sim_makespan_geomean_s"], tr.e2e["sim_makespan_geomean_s"]; a != b || a == 0 {
			t.Errorf("%s: sim_makespan_geomean_s untraced %v, traced %v", name, a, b)
		}
		if tr.layer["kernels.launches"] == 0 || tr.layer["policy.assign_calls"] == 0 {
			t.Errorf("%s: traced run recorded no fabric or policy calls: %v", name, tr.layer)
		}
	}
}

// BENCHMARK.json must list exactly the metrics the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadsByName) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloadsByName))
	}
	for _, w := range b.Workloads {
		if _, ok := workloadsByName[w.Name]; !ok {
			t.Errorf("unknown workload %q", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestUnionCover(t *testing.T) {
	u := mergeSpans([]span{{start: 10, end: 20}, {start: 15, end: 30}, {start: 40, end: 50}})
	for _, c := range []struct{ a, b, want int64 }{
		{0, 100, 30}, {12, 45, 23}, {30, 40, 0}, {41, 42, 1},
	} {
		if got := u.cover(c.a, c.b); got != c.want {
			t.Errorf("cover(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

var errInjected = errors.New("injected failure")

// failingFabric fails every kernel launch after the first ok.
type failingFabric struct {
	core.Fabric
	ok int64
	n  atomic.Int64
}

func (f *failingFabric) Launch(w cluster.NodeID, inv core.Invocation, ready sim.VirtualTime) (sim.VirtualTime, error) {
	if f.n.Add(1) > f.ok {
		return 0, errInjected
	}
	return f.Fabric.Launch(w, inv, ready)
}

// syncFails is an embedded session whose Sync fails, as a gateway
// session's does when a CE fails after its launch was acked.
type syncFails struct{ *workloads.AsyncGrout }

func (syncFails) Sync() error { return errInjected }

// A gw-stream tenant stopped by an error must make the run incorrect,
// whether the error comes back from a launch or from Sync.
func TestGWStreamStoppedTenantFails(t *testing.T) {
	for _, c := range []struct {
		name  string
		start func() (st *gwStack, cleanup func(), err error)
	}{
		{"sync error", func() (*gwStack, func(), error) {
			ctl, _, err := gwFleet(nil)
			if err != nil {
				return nil, nil, err
			}
			tn := &gwTenant{s: newSession(syncFails{&workloads.AsyncGrout{Ctl: ctl}}, nil, 1), st: newGWStream(1, 0)}
			tn.x, tn.ys, err = gwArraysOf(tn.s)
			return &gwStack{tenants: []*gwTenant{tn}}, func() { ctl.Close() }, err
		}},
		{"failing CE", func() (*gwStack, func(), error) {
			fab := core.NewLocalFabric(cluster.New(cluster.PaperSpec(gwWorkers)), kernels.StdRegistry(), true)
			ctl := core.NewController(&failingFabric{Fabric: fab, ok: 100}, policy.NewRoundRobin(),
				core.Options{Numeric: true, Pipeline: true})
			st, err := serveGW(&gwStack{ctl: ctl, fab: fab}, config{seed: 1})
			return st, func() { st.close() }, err
		}},
		{"closed gateway", func() (*gwStack, func(), error) {
			st, err := startGW(config{seed: 1})
			if err == nil {
				err = st.gw.Close()
			}
			return st, func() { st.close() }, err
		}},
	} {
		st, cleanup, err := c.start()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		st.phase(time.Now().Add(300*time.Millisecond), true)
		o := newOutcome()
		st.tally(o)
		cleanup()
		if o.failed == 0 || o.attempted < o.failed {
			t.Errorf("%s: %d of %d failed, want a failure: %v", c.name, o.failed, o.attempted, o.failures)
		}
	}
}
