package main

import (
	"encoding/json"
	"fmt"
	"runtime"

	"repro/internal/exp"
	"repro/internal/runner"
)

// sweep families: every sweep600 cell belongs to exactly one, the first
// that matches in this order.
var sweepFamilies = []string{"rrmp_plain", "rrmp_crash", "rrmp_partition", "rrmp_budget", "rmtp", "workload", "adaptive"}

// sweepFamily classifies a cell. sweep is the index of the sweep that
// declared it (0 default, 1 workload, 2 adaptive).
func sweepFamily(sweep int, sc exp.Scenario) string {
	switch {
	case sweep == 1:
		return "workload"
	case sweep == 2:
		return "adaptive"
	case sc.Protocol == "rmtp":
		return "rmtp"
	case sc.Crash > 0:
		return "rrmp_crash"
	case sc.PartitionAt > 0:
		return "rrmp_partition"
	case sc.ByteBudget > 0:
		return "rrmp_budget"
	default:
		return "rrmp_plain"
	}
}

// poolStride picks the cells of the pooled pass that measures
// exp.pool_efficiency: every poolStride-th, reaching every family.
const poolStride = 3

// traceSweep attributes sweep600: one serial pass calling RunScenario per
// cell (trial 0), timed per call and grouped by family; the per-cell setup
// steps as their own spans; AggregateTrials and the report encoding as
// theirs; and a pooled pass over a stride sample for the pool's efficiency.
func traceSweep(cfg runConfig, rec *recorder, res *traceResult) error {
	sweeps := sweep600Sweeps(cfg.smoke)
	seed0 := exp.TrialSeed(cfg.seed, 0)
	m := res.Metrics

	type cell struct {
		sc     exp.Scenario
		family string
		wallS  float64
	}
	var cells []cell
	for i, sw := range sweeps {
		for _, sc := range sw.Expand() {
			cells = append(cells, cell{sc: sc, family: sweepFamily(i, sc)})
		}
	}
	res.Trials = len(cells)

	// Setup steps, each summed over the cells: what every trial pays
	// before its first event.
	endPass := rec.begin("setup_pass", "", 0)
	for _, c := range cells {
		end := rec.begin("topology.build", "setup_pass", 0)
		topo, err := buildTopology(c.sc)
		m["topology.build_s"] += end()
		if err != nil {
			return err
		}
		end = rec.begin("workload.timeline", "setup_pass", 0)
		_, _, err = runner.TimelineFor(c.sc, seed0)
		m["workload.timeline_s"] += end()
		if err != nil {
			return err
		}
		end = rec.begin("runner.cluster_build", "setup_pass", 0)
		err = buildCluster(c.sc, topo, seed0)
		m["runner.cluster_build_s"] += end()
		if err != nil {
			return err
		}
	}
	endPass()
	runtime.GC()

	// The serial attribution pass.
	results := make([][]map[string]float64, len(cells))
	var events, delivered, recSum, recN float64
	endPass = rec.begin("serial_pass", "", 0)
	for i := range cells {
		c := &cells[i]
		end := rec.begin("runner.RunScenario:"+c.family, "serial_pass", 0)
		out, err := runner.RunScenario(c.sc, seed0)
		c.wallS = end()
		if err != nil {
			return fmt.Errorf("sweep600: cell %q: %w", c.sc.Name(), err)
		}
		results[i] = []map[string]float64{out}
		m["runner.sweep_cpu_s."+c.family] += c.wallS
		events += out[runner.MKEvents]
		pubs, ok := out[runner.MKPublishes]
		delivered += out[runner.MKDeliveryRatio] * float64(members(c.sc)) * publishes(c.sc, pubs, ok)
		m["netsim.packets_sent"] += out[runner.MKPacketsSent]
		m["rrmp.repairs"] += out[runner.MKRepairs]
		m["rrmp.duplicates"] += out[runner.MKDuplicates]
		m["rrmp.local_requests"] += out[runner.MKLocalRequests]
		m["rrmp.remote_requests"] += out[runner.MKRemoteRequests]
		m["rrmp.searches"] += out[runner.MKSearches]
		if v, ok := out[runner.MKMeanRecoveryMs]; ok {
			recSum += v
			recN++
		}
	}
	serialS := endPass()
	m["sim.events"] = events
	m["rrmp.delivers"] = delivered
	if events > 0 {
		m["sim.ns_per_event"] = serialS * 1e9 / events
		m["sim.events_per_s"] = events / serialS
		m["netsim.packets_per_event"] = m["netsim.packets_sent"] / events
	}
	if delivered > 0 {
		m["rrmp.events_per_delivery"] = events / delivered
	}
	if recN > 0 {
		m["rrmp.recovery_ms"] = recSum / recN
	}
	runtime.GC()

	// Aggregation and report encoding, as RunSweeps performs them.
	end := rec.begin("exp.AggregateTrials", "", 0)
	rep := exp.Report{Schema: exp.ReportSchema, BaseSeed: cfg.seed, Trials: 1}
	for i, c := range cells {
		rep.Cells = append(rep.Cells, exp.Cell{Name: c.sc.Name(), Scenario: c.sc, Aggregate: exp.AggregateTrials(results[i])})
	}
	m["exp.aggregate_s"] = end()
	end = rec.begin("json.Marshal(report)", "", 0)
	_, err := json.Marshal(rep)
	m["exp.report_json_s"] = end()
	if err != nil {
		return err
	}

	// Pool efficiency on a stride sample: the serial time of the sampled
	// cells over the pooled wall x W. 1 means the pool kept every worker
	// busy at serial speed; contention and imbalance push it down.
	sampled := map[string]bool{}
	var sampledSerialS float64
	for i := 0; i < len(cells); i += poolStride {
		sampled[cells[i].sc.Name()] = true
		sampledSerialS += cells[i].wallS
	}
	end = rec.begin("exp.RunSweeps(sample)", "", 0)
	_, err = exp.RunSweeps(exp.Options{Trials: 1, Parallel: cfg.w, BaseSeed: cfg.seed}, sweeps,
		func(sc exp.Scenario, seed uint64) (map[string]float64, error) {
			if !sampled[sc.Name()] {
				return nil, nil
			}
			return runner.RunScenario(sc, seed)
		})
	pooledS := end()
	if err != nil {
		return err
	}
	if pooledS > 0 {
		m["exp.pool_efficiency"] = sampledSerialS / (pooledS * float64(cfg.w))
	}

	perFamily := map[string]int64{}
	for _, c := range cells {
		perFamily[c.family]++
	}
	for _, f := range sweepFamilies {
		total := m["runner.sweep_cpu_s."+f]
		res.Aggregates = append(res.Aggregates, spanAggregate{
			Layer: "runner", Op: "RunScenario:" + f, Count: perFamily[f], TotalS: total, SelfS: total,
		})
	}
	return nil
}
