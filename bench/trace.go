package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/topology"
)

// This file is the traced run's harness: a span recorder, and the "open
// trial" — one trial composed from the layers' public calls, so a span can
// be recorded at every layer boundary and the loss, latency and policy
// models and the member hooks can be wrapped. The wrappers themselves live
// with their layer's probe (probe_netsim.go, probe_core.go, probe_rrmp.go).

// op is one (layer, operation) pair of wrapper spans inside the event
// loop. Those are far too many to keep one by one: they are aggregated per
// lane, and every sampleEvery-th is kept raw.
type op int

const (
	opLoss op = iota
	opLatency
	opPolicyHold
	opPolicyOnIdle
	opPolicyLongTermTTL
	opPolicyObserveStore
	opPolicyObserveRequest
	opPolicyObserveEvict
	opPolicyDisplacedBefore
	numOps
)

var opNames = [numOps][2]string{
	opLoss:                  {"netsim", "loss.Drop"},
	opLatency:               {"netsim", "latency.OneWay"},
	opPolicyHold:            {"core", "policy.Hold"},
	opPolicyOnIdle:          {"core", "policy.OnIdle"},
	opPolicyLongTermTTL:     {"core", "policy.LongTermTTL"},
	opPolicyObserveStore:    {"core", "policy.ObserveStore"},
	opPolicyObserveRequest:  {"core", "policy.ObserveRequest"},
	opPolicyObserveEvict:    {"core", "policy.ObserveEvict"},
	opPolicyDisplacedBefore: {"core", "policy.DisplacedBefore"},
}

// count is one boundary counter fed by the member hooks.
type count int

const (
	cntDelivers count = iota
	cntRecoveries
	cntEvictIdle
	cntEvictPressure
	cntPromotions
	numCounts
)

const sampleEvery = 1024

// rawSpan is one recorded span. Wrapper spans carry their lane.
type rawSpan struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Trial   int    `json:"trial"`
	Lane    int    `json:"lane,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// lane is the wrapper state of one event loop. Every wrapper of a member
// writes only to its member's lane, so sharded lanes never share a counter.
type lane struct {
	id      int
	epoch   time.Time
	trial   int
	count   [numOps]int64
	total   [numOps]time.Duration
	counts  [numCounts]int64
	samples []rawSpan
	_       [64]byte // keep neighbouring lanes off one cache line
}

// span closes a wrapper span opened at start.
func (l *lane) span(o op, start time.Time) {
	d := time.Since(start)
	l.count[o]++
	l.total[o] += d
	if l.count[o]%sampleEvery == 0 {
		s := start.Sub(l.epoch).Nanoseconds()
		l.samples = append(l.samples, rawSpan{
			Name: opNames[o][0] + "." + opNames[o][1], Parent: "sim.loop",
			Trial: l.trial, Lane: l.id, StartNs: s, EndNs: s + d.Nanoseconds(),
		})
	}
}

// recorder keeps every span in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []rawSpan
	lanes []lane
	// spanCost is what one wrapper span adds to the traced run (two clock
	// reads and the bookkeeping); spanBias is the duration an empty span
	// records (the part of that cost that falls between its clock reads).
	// Aggregate totals are reported net of count x spanBias.
	spanCost, spanBias time.Duration
}

func newRecorder(lanes int) *recorder {
	r := &recorder{epoch: time.Now(), lanes: make([]lane, lanes)}
	for i := range r.lanes {
		r.lanes[i].id, r.lanes[i].epoch = i, r.epoch
	}
	// Calibrate on a scratch lane: what a span costs when it wraps nothing.
	const n = 200000
	var scratch lane
	scratch.epoch = r.epoch
	t0 := time.Now()
	for i := 0; i < n; i++ {
		scratch.span(opLoss, time.Now())
	}
	r.spanCost = time.Since(t0) / n
	r.spanBias = scratch.total[opLoss] / n
	return r
}

// begin opens a boundary span; the returned func closes it and returns its
// duration in seconds.
func (r *recorder) begin(name, parent string, trial int) func() float64 {
	start := time.Now()
	return func() float64 {
		d := time.Since(start)
		s := start.Sub(r.epoch).Nanoseconds()
		r.spans = append(r.spans, rawSpan{Name: name, Parent: parent, Trial: trial, StartNs: s, EndNs: s + d.Nanoseconds()})
		return d.Seconds()
	}
}

func (r *recorder) setTrial(trial int) {
	for i := range r.lanes {
		r.lanes[i].trial = trial
	}
}

// opTotals sums one op over the lanes: its call count and its total time
// net of the span bias.
func (r *recorder) opTotals(o op) (int64, float64) {
	var n int64
	var d time.Duration
	for i := range r.lanes {
		n += r.lanes[i].count[o]
		d += r.lanes[i].total[o]
	}
	if d -= time.Duration(n) * r.spanBias; d < 0 {
		d = 0
	}
	return n, d.Seconds()
}

func (r *recorder) counter(c count) int64 {
	var n int64
	for i := range r.lanes {
		n += r.lanes[i].counts[c]
	}
	return n
}

// spanAggregate is one (layer, op) row of the traced run's span table.
type spanAggregate struct {
	Layer  string  `json:"layer"`
	Op     string  `json:"op"`
	Count  int64   `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// traceResult is one workload's traced record.
type traceResult struct {
	Name string `json:"name"`
	// Trials is the number of open trials (sweep600: attributed cells).
	Trials int     `json:"trials"`
	WallS  float64 `json:"wall_s"`
	// Mirror is "ok" when the open trial reproduced RunScenario exactly,
	// "n/a" for sweep600.
	Mirror string `json:"mirror"`
	// Metrics holds every per-layer metric by catalogue name; the ones
	// this workload does not exercise read 0. Counts and spans are means
	// per open trial.
	Metrics    map[string]float64 `json:"metrics"`
	Aggregates []spanAggregate    `json:"aggregates,omitempty"`
}

// traceWorkload is `bench trace` for one workload: the open trials with
// their mirror check (sweep600: the serial attribution pass), then every
// layer's probe. spansPath, when set, receives the recorded spans.
func traceWorkload(name string, cfg runConfig, spansPath string) (traceResult, error) {
	started := time.Now()
	res := traceResult{Name: name, Metrics: map[string]float64{}}
	for _, m := range layerMetrics {
		res.Metrics[m.Name] = 0
	}
	rec := newRecorder(cfg.w)
	res.Metrics["bench.span_cost_ns"] = float64(rec.spanCost.Nanoseconds())

	var err error
	if name == wlSweep600 {
		res.Mirror = "n/a"
		err = traceSweep(cfg, rec, &res)
	} else {
		def, ok := scenarioWorkload(name)
		if !ok {
			return res, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
		}
		err = traceScenario(def, cfg, rec, &res)
	}
	if err != nil {
		return res, err
	}
	runProbes(cfg.smoke, res.Metrics)
	res.WallS = time.Since(started).Seconds()
	if spansPath != "" {
		if err := writeSpans(spansPath, rec, res); err != nil {
			return res, err
		}
	}
	return res, nil
}

func writeSpans(path string, rec *recorder, res traceResult) error {
	spans := append([]rawSpan(nil), rec.spans...)
	for i := range rec.lanes {
		spans = append(spans, rec.lanes[i].samples...)
	}
	b, err := json.Marshal(struct {
		Workload   string          `json:"workload"`
		SpanCostNs int64           `json:"span_cost_ns"`
		Aggregates []spanAggregate `json:"aggregates"`
		Spans      []rawSpan       `json:"spans"`
	}{res.Name, rec.spanCost.Nanoseconds(), res.Aggregates, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// openTrial is what one open trial measured.
type openTrial struct {
	wallS                          float64
	topologyS, timelineS, clusterS float64
	scheduleS, loopS, collectS     float64
	clusterAllocs, clusterBytes    float64
	trialBytes, loopAllocs, gcFrac float64
	events, packetsSent, bytesSent float64
	packetsDropped, deliveryRatio  float64
	member                         memberTotals
	members                        int
}

// memberTotals is the sum of Member.Metrics() over the group.
type memberTotals struct {
	delivered, duplicates, localReq, remoteReq, repairs, searches float64
	recoverySumMs, recoveryN                                      float64
}

// runOpenTrial composes one trial of sc from public calls — topology build
// -> NewCluster with wrapped Loss/Latency/Policy/Hooks -> TimelineFor ->
// publishes scheduled on the engine -> RunUntil -> read the stats — and
// records one span per boundary. It mirrors runner's RRMP kernel for
// fault-free scenarios, which is all the single-scenario workloads are.
func runOpenTrial(sc exp.Scenario, seed uint64, rec *recorder, trial int) (openTrial, error) {
	if sc.Protocol != "" || sc.Churn > 0 || sc.Crash > 0 || sc.PartitionAt > 0 ||
		(sc.Workload != nil && sc.Workload.LateJoinFrac > 0) {
		return openTrial{}, fmt.Errorf("open trial: scenario %q has faults or a non-rrmp protocol", sc.Name())
	}
	var o openTrial
	rec.setTrial(trial)
	gc0, cpu0 := gcCPU()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	endTrial := rec.begin("trial", "", trial)

	end := rec.begin("topology.build", "trial", trial)
	topo, err := buildTopology(sc)
	o.topologyS = end()
	if err != nil {
		return o, err
	}
	o.members = topo.NumNodes()

	// Lanes follow the engine's own node->shard map, so a member's
	// wrappers count where its events run.
	var shardOf []int32
	if sc.Shards > 1 {
		shardOf, _ = topo.NodeShards(sc.Shards)
	}
	laneOf := func(n topology.NodeID) *lane {
		if shardOf == nil {
			return &rec.lanes[0]
		}
		return &rec.lanes[shardOf[n]]
	}

	cfg, err := openClusterConfig(sc, seed, topo, laneOf)
	if err != nil {
		return o, err
	}
	runtime.ReadMemStats(&ms1)
	end = rec.begin("runner.cluster_build", "trial", trial)
	c, err := runner.NewCluster(cfg)
	o.clusterS = end()
	if err != nil {
		return o, err
	}
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	o.clusterAllocs = float64(ms2.Mallocs - ms1.Mallocs)
	o.clusterBytes = float64(ms2.TotalAlloc - ms1.TotalAlloc)

	end = rec.begin("workload.timeline", "trial", trial)
	tl, _, err := runner.TimelineFor(sc, seed)
	o.timelineS = end()
	if err != nil {
		return o, err
	}

	end = rec.begin("runner.schedule", "trial", trial)
	published, err := schedulePublishes(c, tl)
	o.scheduleS = end()
	if err != nil {
		return o, err
	}

	var ms3, ms4 runtime.MemStats
	runtime.ReadMemStats(&ms3)
	end = rec.begin("sim.loop", "trial", trial)
	c.Engine.RunUntil(sc.Horizon)
	o.loopS = end()
	runtime.ReadMemStats(&ms4)
	o.loopAllocs = float64(ms4.Mallocs - ms3.Mallocs)

	end = rec.begin("runner.collect", "trial", trial)
	st := c.Net.Stats()
	o.events = float64(c.Engine.Processed())
	o.packetsSent = float64(st.TotalSent())
	o.bytesSent = float64(st.TotalBytes())
	o.packetsDropped = droppedPackets(st)
	o.member = collectMembers(c)
	msgs := sc.Msgs
	if sc.Workload != nil {
		msgs = *published
	}
	if msgs > 0 {
		o.deliveryRatio = o.member.delivered / float64(o.members*msgs)
	}
	o.collectS = end()

	o.wallS = endTrial()
	var ms5 runtime.MemStats
	runtime.ReadMemStats(&ms5)
	o.trialBytes = float64(ms5.TotalAlloc - ms0.TotalAlloc)
	if gc1, cpu1 := gcCPU(); cpu1 > cpu0 {
		o.gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	return o, nil
}

// gcCPU reads the runtime's cumulative collector and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// publisherNodes maps timeline clients to member nodes exactly as runner
// does: client 0 on the topology's sender, the rest strided across the
// member space, probing past collisions. The mirror check fails if this
// ever drifts from runner's mapping.
func publisherNodes(topo *topology.Topology, clients int) ([]topology.NodeID, error) {
	n := topo.NumNodes()
	if clients > n {
		return nil, fmt.Errorf("open trial: %d workload clients exceed %d members", clients, n)
	}
	if clients < 1 {
		clients = 1
	}
	pubs := make([]topology.NodeID, 0, clients)
	used := make(map[topology.NodeID]bool, clients)
	add := func(id topology.NodeID) {
		for used[id] {
			id = topology.NodeID((int(id) + 1) % n)
		}
		used[id] = true
		pubs = append(pubs, id)
	}
	add(topo.Sender())
	for i := 1; i < clients; i++ {
		add(topology.NodeID(i * n / clients))
	}
	return pubs, nil
}

// traceScenario runs the untraced reference, the open trials, the mirror
// check and (sharded workloads) the width pair, and fills the metrics.
func traceScenario(def workloadDef, cfg runConfig, rec *recorder, res *traceResult) error {
	sc := def.scenario(cfg.w, cfg.smoke)
	n := def.traceTrials(cfg.seconds, cfg.smoke)
	res.Trials = n

	// The untraced reference runs first: it is the mirror's truth, the
	// overhead's denominator, and the process's warm-up.
	seed0 := exp.TrialSeed(cfg.seed, 0)
	t0 := time.Now()
	ref, err := runner.RunScenario(sc, seed0)
	untracedS := time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("%s: reference trial: %w", def.name, err)
	}
	runtime.GC()

	var sum openTrial
	var walls []float64
	for i := 0; i < n; i++ {
		o, err := runOpenTrial(sc, exp.TrialSeed(cfg.seed, i), rec, i)
		if err != nil {
			return fmt.Errorf("%s: open trial %d: %w", def.name, i, err)
		}
		runtime.GC()
		if i == 0 {
			if why := mirrorMismatch(o, ref); why != "" {
				return fmt.Errorf("%s: mirror check failed, the open trial is not the program RunScenario runs: %s", def.name, why)
			}
			res.Mirror = "ok"
		}
		walls = append(walls, o.wallS)
		sum.add(o)
	}
	fillOpenMetrics(res, rec, sum, float64(n), cfg.w, sc)
	if untracedS > 0 {
		// Trial 0 shares the reference's seed, so the two walls time the
		// same simulated work.
		res.Metrics["bench.trace_overhead_frac"] = walls[0]/untracedS - 1
	}

	if sc.Shards > 1 {
		// Width pair: the same trial at Shards:1. Equal digests are the
		// engine's byte-identity contract; the wall ratio is the first
		// point of the speedup-vs-cores curve.
		serial := sc
		serial.Shards = 1
		t0 := time.Now()
		one, err := runner.RunScenario(serial, seed0)
		serialS := time.Since(t0).Seconds()
		if err != nil {
			return fmt.Errorf("%s: width pair: %w", def.name, err)
		}
		a, errA := digestMaps([]map[string]float64{ref})
		b, errB := digestMaps([]map[string]float64{one})
		if errA != nil || errB != nil || a != b {
			return fmt.Errorf("%s: width pair: Shards:1 and Shards:%d digests differ", def.name, sc.Shards)
		}
		res.Metrics["sim.shard_speedup"] = serialS / untracedS
		res.Metrics["sim.shard_efficiency"] = serialS / untracedS / float64(cfg.w)
		runtime.GC()
	}
	return nil
}

func (s *openTrial) add(o openTrial) {
	s.wallS += o.wallS
	s.topologyS += o.topologyS
	s.timelineS += o.timelineS
	s.clusterS += o.clusterS
	s.scheduleS += o.scheduleS
	s.loopS += o.loopS
	s.collectS += o.collectS
	s.clusterAllocs += o.clusterAllocs
	s.clusterBytes += o.clusterBytes
	s.trialBytes += o.trialBytes
	s.loopAllocs += o.loopAllocs
	s.gcFrac += o.gcFrac
	s.events += o.events
	s.packetsSent += o.packetsSent
	s.packetsDropped += o.packetsDropped
	s.member.delivered += o.member.delivered
	s.member.duplicates += o.member.duplicates
	s.member.localReq += o.member.localReq
	s.member.remoteReq += o.member.remoteReq
	s.member.repairs += o.member.repairs
	s.member.searches += o.member.searches
	s.member.recoverySumMs += o.member.recoverySumMs
	s.member.recoveryN += o.member.recoveryN
	s.members = o.members
}

// mirrorMismatch compares the open trial with RunScenario's metrics for
// the same seed; "" means they agree exactly.
func mirrorMismatch(o openTrial, ref map[string]float64) string {
	var diffs []string
	check := func(key string, got float64) {
		if want := ref[key]; got != want {
			diffs = append(diffs, fmt.Sprintf("%s %v != %v", key, got, want))
		}
	}
	check(runner.MKEvents, o.events)
	check(runner.MKPacketsSent, o.packetsSent)
	check(runner.MKBytesSent, o.bytesSent)
	check(runner.MKDeliveryRatio, o.deliveryRatio)
	return strings.Join(diffs, "; ")
}

// fillOpenMetrics turns the summed open trials and the lane aggregates
// into per-trial means under the catalogue names.
func fillOpenMetrics(res *traceResult, rec *recorder, sum openTrial, n float64, w int, sc exp.Scenario) {
	m := res.Metrics
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["topology.build_s"] = sum.topologyS / n
	m["workload.timeline_s"] = sum.timelineS / n
	m["runner.cluster_build_s"] = sum.clusterS / n
	m["runner.cluster_allocs_per_member"] = ratio(sum.clusterAllocs/n, float64(sum.members))
	m["runner.cluster_bytes_per_member"] = ratio(sum.clusterBytes/n, float64(sum.members))
	m["runner.schedule_s"] = sum.scheduleS / n
	m["runner.collect_s"] = sum.collectS / n
	m["runner.alloc_mb_per_trial"] = sum.trialBytes / n / 1e6
	m["runner.allocs_per_event"] = ratio(sum.loopAllocs, sum.events)
	m["runner.gc_cpu_frac"] = sum.gcFrac / n

	m["sim.loop_s"] = sum.loopS / n
	m["sim.events"] = sum.events / n
	m["sim.ns_per_event"] = ratio(sum.loopS*1e9, sum.events)
	m["sim.events_per_s"] = ratio(sum.events, sum.loopS)

	m["netsim.packets_sent"] = sum.packetsSent / n
	m["netsim.packets_dropped"] = sum.packetsDropped / n
	m["netsim.packets_per_event"] = ratio(sum.packetsSent, sum.events)

	// Wrapper spans: per-op aggregates, children of sim.loop.
	var calls [numOps]float64
	var secs [numOps]float64
	var children, policyCalls, policyS float64
	for o := op(0); o < numOps; o++ {
		count, total := rec.opTotals(o)
		calls[o], secs[o] = float64(count), total
		children += total
		res.Aggregates = append(res.Aggregates, spanAggregate{
			Layer: opNames[o][0], Op: opNames[o][1], Count: count, TotalS: total, SelfS: total,
		})
		if o >= opPolicyHold {
			policyCalls += calls[o]
			policyS += total
		}
	}
	pressure := float64(rec.counter(cntEvictPressure))
	m["netsim.loss_calls"] = calls[opLoss] / n
	m["netsim.loss_s"] = secs[opLoss] / n
	m["netsim.latency_calls"] = calls[opLatency] / n
	m["netsim.latency_s"] = secs[opLatency] / n
	m["core.policy_calls"] = policyCalls / n
	m["core.policy_s"] = policyS / n
	m["core.displaced_before_calls"] = calls[opPolicyDisplacedBefore] / n
	m["core.stores"] = calls[opPolicyObserveStore] / n
	m["core.requests"] = calls[opPolicyObserveRequest] / n
	m["core.evictions_idle"] = float64(rec.counter(cntEvictIdle)) / n
	m["core.evictions_pressure"] = pressure / n
	m["core.scan_len"] = ratio(calls[opPolicyDisplacedBefore], pressure)
	m["core.promotions"] = float64(rec.counter(cntPromotions)) / n

	// A sharded loop runs its lanes side by side, so the wrappers' summed
	// time covers 1/width of the loop's wall at best; on the serial engine
	// the width is 1 and self time is exact.
	lanes := 1.0
	if sc.Shards > 1 {
		lanes = float64(w)
	}
	self := sum.loopS - children/lanes
	if self < 0 {
		self = 0
	}
	m["sim.loop_self_s"] = self / n
	res.Aggregates = append(res.Aggregates,
		spanAggregate{Layer: "sim", Op: "loop", Count: int64(n), TotalS: sum.loopS, SelfS: self},
		spanAggregate{Layer: "topology", Op: "build", Count: int64(n), TotalS: sum.topologyS, SelfS: sum.topologyS},
		spanAggregate{Layer: "runner", Op: "cluster_build", Count: int64(n), TotalS: sum.clusterS, SelfS: sum.clusterS},
		spanAggregate{Layer: "workload", Op: "timeline", Count: int64(n), TotalS: sum.timelineS, SelfS: sum.timelineS},
		spanAggregate{Layer: "runner", Op: "schedule", Count: int64(n), TotalS: sum.scheduleS, SelfS: sum.scheduleS},
		spanAggregate{Layer: "runner", Op: "collect", Count: int64(n), TotalS: sum.collectS, SelfS: sum.collectS},
	)

	m["rrmp.delivers"] = float64(rec.counter(cntDelivers)) / n
	m["rrmp.recoveries"] = float64(rec.counter(cntRecoveries)) / n
	m["rrmp.local_requests"] = sum.member.localReq / n
	m["rrmp.remote_requests"] = sum.member.remoteReq / n
	m["rrmp.repairs"] = sum.member.repairs / n
	m["rrmp.searches"] = sum.member.searches / n
	m["rrmp.duplicates"] = sum.member.duplicates / n
	m["rrmp.useful_repair_ratio"] = ratio(float64(rec.counter(cntRecoveries)), sum.member.repairs)
	m["rrmp.events_per_delivery"] = ratio(sum.events, sum.member.delivered)
	m["rrmp.recovery_ms"] = ratio(sum.member.recoverySumMs, sum.member.recoveryN)
}
