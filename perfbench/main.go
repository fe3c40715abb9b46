// Command perfbench is the repository's benchmark: it drives the whole
// stack on three workloads, checks every output, and prints every metric
// by name with its unit and direction. See README.md in this directory.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload gw-stream --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the run measures half its time
// untraced and half traced, and reports the per-layer metrics, the
// tracing overhead, and writes a Chrome trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricSpec struct{ name, unit, better string }

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one; "req" is the workload's request: a sync batch on
// gw-stream, a job on uvm-jobs, a grid cell on oversub-model.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ce_per_s", "CE/s", "higher"},
	{"req_per_s", "1/s", "higher"},
	{"req_p50_ms", "ms", "lower"},
	{"req_tail_ms", "ms", "lower"},
	{"launch_p50_us", "us", "lower"},
	{"launch_tail_us", "us", "lower"},
	{"retained_bytes_per_ce", "B/CE", "lower"},
	{"sim_makespan_geomean_s", "virtual_s", "lower"},
}

// aliases gives each end-to-end metric its workload-specific name.
var aliases = map[string]map[string]string{
	"gw-stream": {"req_per_s": "sync_batches_per_s", "req_p50_ms": "sync_batch_p50_ms",
		"req_tail_ms": "sync_batch_tail_ms", "sim_makespan_geomean_s": "replay_makespan_geomean_s"},
	"uvm-jobs": {"req_per_s": "jobs_per_s", "req_p50_ms": "job_p50_ms", "req_tail_ms": "job_tail_ms",
		"sim_makespan_geomean_s": "replay_makespan_geomean_s"},
	"oversub-model": {"req_per_s": "cells_per_s", "req_p50_ms": "cell_p50_ms", "req_tail_ms": "cell_tail_ms",
		"ce_per_s": "sim_ce_per_s", "launch_p50_us": "submit_p50_us", "launch_tail_us": "submit_tail_us"},
}

// perLayer lists the traced run's metrics. Most come from the layer
// named by their prefix; trace.* compares the traced half of the run
// with the untraced half.
var perLayer = []metricSpec{
	{"server.admission_wait_mean_us", "us", "lower"},
	{"server.admission_wait_p99_us", "us", "lower"},
	{"server.queue_depth_max", "count", "lower"},
	{"server.shed", "count", "lower"},
	{"server.dropped", "count", "lower"},
	{"server.sync_p50_ms", "ms", "lower"},
	{"server.hostwrite_mb_per_s", "MB/s", "higher"},
	{"server.hostread_mb_per_s", "MB/s", "higher"},
	{"server.call_self_ms", "ms", "lower"},
	{"core.sched_overhead_mean_us", "us", "lower"},
	{"dag.vertices_retained_per_ce", "ratio", "lower"},
	{"core.traces_retained_per_ce", "ratio", "lower"},
	{"optimizer.fused_share", "ratio", "higher"},
	{"optimizer.coalesced_transfers", "count", "higher"},
	{"optimizer.eliminated_moves", "count", "higher"},
	{"core.moved_bytes", "B", "lower"},
	{"core.p2p_share", "ratio", "higher"},
	{"core.submit_self_ms", "ms", "lower"},
	{"policy.assign_calls", "count", "lower"},
	{"policy.assign_busy_us", "us", "lower"},
	{"transport.move_calls", "count", "lower"},
	{"transport.move_bytes", "B", "lower"},
	{"transport.move_busy_ms", "ms", "lower"},
	{"transport.move_mb_per_s", "MB/s", "higher"},
	{"transport.launch_rtt_p50_us", "us", "lower"},
	{"transport.ctrl_calls", "count", "lower"},
	{"minicuda.build_cold_ms", "ms", "lower"},
	{"kernels.launches", "count", "lower"},
	{"kernels.exec_ms", "ms", "lower"},
	{"gpusim.pages_migrated_in", "count", "lower"},
	{"gpusim.pages_evicted", "count", "lower"},
	{"gpusim.pages_written_back", "count", "lower"},
	{"gpusim.migrations_per_footprint_page", "ratio", "lower"},
	{"gpusim.launch_busy_ms", "ms", "lower"},
	{"runtime.goroutines_delta", "count", "lower"},
	{"trace.spans_dropped", "count", "lower"},
}

func init() {
	for _, m := range endToEnd {
		perLayer = append(perLayer, metricSpec{"trace.overhead_pct." + m.name, "%", "lower"})
	}
}

// sampleStat describes a statistic over samples: their count and, for
// a tail, the percentile. Tail percentiles are fixed per workload to one
// the run's sample supports with at least minBeyond samples past it, so
// every run compares like with like.
type sampleStat struct {
	samples int
	pct     float64 // 0 for a median
}

// outcome is one measured run of a workload.
type outcome struct {
	attempted, failed int64
	failures          []string
	e2e               map[string]float64
	stats             map[string]sampleStat
	layer             map[string]float64
	// identity holds values the traced half must reproduce exactly.
	identity []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, stats: map[string]sampleStat{},
		layer: map[string]float64{}}
}

// fail records a failed operation; the first few are printed.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// timing stores median and tail of ns samples under the metric names
// p50 and tailName, in the unit per (1e3 µs, 1e6 ms).
func (o *outcome) timing(p50, tailName string, ns []int64, per, pct float64) {
	xs := scaled(ns, per)
	o.e2e[p50] = median(xs)
	o.stats[p50] = sampleStat{samples: len(xs)}
	o.e2e[tailName] = quantile(xs, pct/100)
	o.stats[tailName] = sampleStat{samples: len(xs), pct: pct}
}

// config is one run's parameters.
type config struct {
	seed    int64
	seconds float64
	rec     *recorder // nil: untraced
}

type workload struct {
	why string
	// linked: one caller drives the stack, so fabric spans nest under
	// session calls (see trace.go).
	linked bool
	run    func(cfg config) (*outcome, error)
}

var workloadsByName = map[string]workload{
	"gw-stream":     {"two tenants stream small launches through the gateway, a fresh operand per epoch: admission, scheduling and DAG bookkeeping", false, runGWStream},
	"uvm-jobs":      {"whole numeric jobs over TCP workers: bulk transfer, kernels and placement", true, runUVMJobs},
	"oversub-model": {"modeled UVMBench grid, 0.5-4x oversubscription on 1/2/4 workers: core, policy and gpusim only", true, runOversub},
}

func main() {
	name := flag.String("workload", "", "workload: gw-stream, uvm-jobs or oversub-model")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceOn := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	root := flag.String("root", ".", "repository root (fingerprint)")
	out := flag.String("out", ".bench_build", "directory for Chrome traces")
	flag.Parse()

	w, ok := workloadsByName[*name]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	fp := fingerprint(*root)
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%d\n# why: %s\n# %s\n", *name, *seed, *seconds, *traceOn, w.why, fp)

	var res map[string]any
	var err error
	steal0, stealOK := stealTicks()
	t0 := time.Now()
	if *traceOn == 0 {
		res, err = untracedRun(*name, w, config{seed: *seed, seconds: *seconds})
	} else {
		res, err = tracedRun(*name, w, config{seed: *seed, seconds: *seconds}, *out, fp)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	// Time stolen by other guests slows every figure of the run at once;
	// it is printed so a disturbed run can be told from a regression.
	if steal1, ok := stealTicks(); ok && stealOK {
		pct := float64(steal1-steal0) / (float64(runtime.NumCPU()) * time.Since(t0).Seconds())
		fmt.Printf("# host steal: %.1f%% of the CPUs' time during the run\n", pct)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var ns []string
	for n := range workloadsByName {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// result builds the final JSON object from an outcome.
func result(o *outcome, metrics []metricSpec, values map[string]float64) map[string]any {
	ms := map[string]any{}
	for _, m := range metrics {
		ms[m.name] = map[string]any{"value": values[m.name], "unit": m.unit}
	}
	return map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   ms,
	}
}

func printChecks(o *outcome) {
	for _, f := range o.failures {
		fmt.Printf("FAIL %s\n", f)
	}
	fmt.Printf("check attempted=%d failed=%d fail_ratio=%.6g (lower)\n",
		o.attempted, o.failed, ratio(float64(o.failed), float64(o.attempted)))
}

func untracedRun(name string, w workload, cfg config) (map[string]any, error) {
	o, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	printChecks(o)
	for _, m := range endToEnd {
		label := m.name
		if a := aliases[name][m.name]; a != "" {
			label += " (" + a + ")"
		}
		extra := ""
		if st, ok := o.stats[m.name]; ok {
			extra = fmt.Sprintf(" samples=%d", st.samples)
			if st.pct > 0 {
				b := beyond(st.samples, st.pct)
				extra += fmt.Sprintf(" percentile=p%g beyond=%d", st.pct, b)
				if b < minBeyond {
					extra += " WARNING: fewer than 10 samples beyond the percentile"
				}
			}
		}
		fmt.Printf("metric %s = %.6g %s (%s is better)%s\n", label, o.e2e[m.name], m.unit, m.better, extra)
	}
	return result(o, endToEnd, o.e2e), nil
}

// tracedRun measures half the time untraced and half traced, on fresh
// stacks, and checks that tracing changed no output.
func tracedRun(name string, w workload, cfg config, outDir, fp string) (map[string]any, error) {
	cfg.seconds /= 2
	base, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	cfg.rec = newRecorder(w.linked)
	tr, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	tr.attempted += base.attempted
	tr.failed += base.failed
	tr.failures = append(base.failures, tr.failures...)
	if strings.Join(base.identity, "\n") != strings.Join(tr.identity, "\n") {
		tr.fail(1, "traced run changed outputs or modeled counters: untraced %d values, traced %d",
			len(base.identity), len(tr.identity))
	}
	for _, m := range endToEnd {
		tr.layer["trace.overhead_pct."+m.name] = 100 * ratio(tr.e2e[m.name]-base.e2e[m.name], base.e2e[m.name])
	}
	tr.layer["trace.spans_dropped"] = float64(cfg.rec.dropped)
	printChecks(tr)
	for _, m := range perLayer {
		fmt.Printf("layer %s = %.6g %s\n", m.name, tr.layer[m.name], m.unit)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, cfg.seed))
	n, err := cfg.rec.writeChrome(path, map[string]any{"workload": name, "seed": cfg.seed, "fingerprint": fp})
	if err != nil {
		return nil, err
	}
	fmt.Printf("# chrome trace: %s (%d events)\n", path, n)
	return result(tr, perLayer, tr.layer), nil
}
