package main

import (
	"fmt"
	"time"

	"grout"
	"grout/internal/core"
	"grout/internal/gpusim"
	"grout/internal/policy"
	"grout/internal/server"
)

// gatewayCore mirrors grout-gateway's controller defaults: numeric,
// pipelined, the default optimizer window, failover on.
func gatewayCore() core.Options {
	return core.Options{Numeric: true, Pipeline: true,
		OptimizeWindow: grout.DefaultOptimizeWindow, Failover: true}
}

// newController builds a controller over fab with pol, through the
// traced wrappers when the run is traced.
func newController(fab core.Fabric, pol policy.Policy, opts core.Options, rec *recorder) (*core.Controller, error) {
	if rec != nil {
		var err error
		if fab, err = wrapFabric(fab, rec); err != nil {
			return nil, err
		}
		pol = wrapPolicy(pol, rec)
	}
	return core.NewController(fab, pol, opts), nil
}

// pageStats sums the modeled UVM counters over nodes.
type pageStats struct{ migratedIn, evicted, writtenBack int64 }

func (p *pageStats) add(n *gpusim.Node) {
	for _, d := range n.Devices() {
		st := d.Stats()
		p.migratedIn += st.PagesMigratedIn
		p.evicted += st.PagesEvicted
		p.writtenBack += st.PagesWrittenBack
	}
}

func (p pageStats) String() string {
	return fmt.Sprintf("pages in=%d evicted=%d written_back=%d", p.migratedIn, p.evicted, p.writtenBack)
}

// setPages reports the gpusim counters; footprintPages is the pages the
// workload's arrays span, so migrations per footprint page is 1.0 when
// every page migrated once.
func (o *outcome) setPages(p pageStats, footprintPages int64) {
	o.layer["gpusim.pages_migrated_in"] = float64(p.migratedIn)
	o.layer["gpusim.pages_evicted"] = float64(p.evicted)
	o.layer["gpusim.pages_written_back"] = float64(p.writtenBack)
	o.layer["gpusim.migrations_per_footprint_page"] = ratio(float64(p.migratedIn), float64(footprintPages))
}

// ctlTotals accumulates a controller's counters over one or many
// controllers (oversub-model runs one per cell).
type ctlTotals struct {
	ces, vertices, traces               int64
	fused, coalesced, eliminated, moved int64
	p2p                                 int64
	schedNs                             float64 // mean overhead × CEs, summed
}

func (t *ctlTotals) add(ctl *core.Controller, ces int64) {
	t.ces += ces
	t.vertices += int64(ctl.Graph().Size())
	t.traces += int64(len(ctl.Traces()))
	st := ctl.OptStats()
	t.fused += st.FusedCEs
	t.coalesced += st.CoalescedTransfers
	t.eliminated += st.EliminatedMoves
	t.moved += int64(ctl.MovedBytes())
	t.p2p += int64(ctl.P2PMoves())
	t.schedNs += float64(ctl.MeanSchedulingOverhead().Nanoseconds()) * float64(ces)
}

// setServer reports the gateway's counters from a snapshot taken before
// any session closed, and the client calls the recorder saw.
func (o *outcome) setServer(rec *recorder, snap server.Stats) {
	var admitted int64
	var wait time.Duration
	for _, t := range snap.Tenants {
		admitted += t.Admitted
		wait += t.AdmissionWait
		o.layer["server.shed"] += float64(t.LaunchesShed)
		o.layer["server.dropped"] += float64(t.Dropped)
		if p := float64(t.AdmissionWaitP99.Nanoseconds()) / 1e3; p > o.layer["server.admission_wait_p99_us"] {
			o.layer["server.admission_wait_p99_us"] = p
		}
	}
	o.layer["server.admission_wait_mean_us"] = ratio(float64(wait.Nanoseconds())/1e3, float64(admitted))
	o.layer["server.sync_p50_ms"] = median(scaled(rec.durations(opSync), 1e6))
	o.layer["server.hostwrite_mb_per_s"] = ratio(float64(rec.total(opHostWrite))/1e6, float64(rec.busyNs(opHostWrite))/1e9)
	o.layer["server.hostread_mb_per_s"] = ratio(float64(rec.total(opHostRead))/1e6, float64(rec.busyNs(opHostRead))/1e9)
	o.layer["server.call_self_ms"] = rec.sessionSelf() / 1e6
}

// setLayers reports the controller counters and everything the traced
// wrappers saw. tcp marks a TCP fabric: its moves and control calls are
// the transport layer's; on the in-process fabric Launch runs the
// numeric kernel and the gpusim model, so its host time is theirs.
func (o *outcome) setLayers(rec *recorder, t ctlTotals, tcp bool) {
	ces := float64(t.ces)
	o.layer["core.sched_overhead_mean_us"] = ratio(t.schedNs, ces) / 1e3
	o.layer["dag.vertices_retained_per_ce"] = ratio(float64(t.vertices), ces)
	o.layer["core.traces_retained_per_ce"] = ratio(float64(t.traces), ces)
	o.layer["optimizer.fused_share"] = ratio(float64(t.fused), ces)
	o.layer["optimizer.coalesced_transfers"] = float64(t.coalesced)
	o.layer["optimizer.eliminated_moves"] = float64(t.eliminated)
	o.layer["core.moved_bytes"] = float64(t.moved)

	moves := float64(rec.calls(opMove) + rec.calls(opMoveBulk))
	o.layer["core.p2p_share"] = ratio(float64(t.p2p), moves)
	o.layer["policy.assign_calls"] = float64(rec.total(opAssign) + rec.total(opAssignBatch))
	o.layer["policy.assign_busy_us"] = float64(rec.busyNs(opAssign)+rec.busyNs(opAssignBatch)) / 1e3
	o.layer["kernels.launches"] = float64(rec.calls(opFabLaunch))
	if !tcp {
		o.layer["gpusim.launch_busy_ms"] = float64(rec.busyNs(opFabLaunch)) / 1e6
		return
	}
	bytes := float64(rec.total(opMove) + rec.total(opMoveBulk))
	busy := float64(rec.busyNs(opMove) + rec.busyNs(opMoveBulk))
	o.layer["transport.move_calls"] = moves
	o.layer["transport.move_bytes"] = bytes
	o.layer["transport.move_busy_ms"] = busy / 1e6
	o.layer["transport.move_mb_per_s"] = ratio(bytes/1e6, busy/1e9)
	o.layer["transport.launch_rtt_p50_us"] = median(scaled(rec.durations(opFabLaunch), 1e3))
	var ctrl int64
	for _, c := range []op{opEnsure, opFabLaunch, opFabFree, opHealthy, opFabBuild} {
		ctrl += rec.calls(c)
	}
	o.layer["transport.ctrl_calls"] = float64(ctrl)
}
