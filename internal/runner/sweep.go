// This file is the scenario kernel, shared by both protocols; the
// metrickey analyzer checks that only keys gated `both` appear here, so
// the kernel cannot leak a protocol-only key (those live behind the
// drivers in rrmp_scenario.go and tree_scenario.go).
//
//metrics:scope both
package runner

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Churn and loss draw from dedicated streams split off the trial seed with
// labels far above any node id (member streams use labels 1..NumNodes).
const (
	lossStreamLabel  = 0xfeed1055
	churnStreamLabel = 0xfeedc4a2
	// crashStreamLabel derives the crash-fault stream, independent of the
	// churn stream so adding crashes never perturbs the leave sequence.
	crashStreamLabel = 0xfeedc4a5
	// PayloadStreamLabel derives the payload-size stream for randomized
	// payload models. Fixed-size scenarios (including the historic
	// 256-byte default) never touch it, so pre-axis runs replay
	// byte-identically.
	PayloadStreamLabel = 0xfeed9a7d
	// memberStreamBase anchors the per-member counter-hash family: member
	// node draws from Split(memberStreamBase + node), i.e. labels
	// 1..NumNodes, which is why the dedicated streams above sit far
	// higher.
	memberStreamBase = 1
	// clusterRootStreamLabel derives the cluster's own root stream (the
	// member family is split off it, keeping protocol draws independent
	// of harness draws made directly on the trial seed).
	clusterRootStreamLabel = 0xaaaa
)

// payloadSizesFor draws the n per-publish payload sizes for a scenario's
// size model around the mean (0 = the historic 256 bytes). The second
// result is the largest drawn size, so drivers can serve every publish
// from one shared backing buffer instead of allocating per message.
func payloadSizesFor(model string, mean, n int, seed uint64) ([]int, int, error) {
	m, err := workload.NewSizeModel(model, mean)
	if err != nil {
		return nil, 0, err
	}
	var r *rng.Source
	if !workload.Deterministic(m) {
		r = rng.New(seed).Split(PayloadStreamLabel)
	}
	sizes := workload.Sizes(m, n, r)
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return sizes, max, nil
}

// scheduleChurn draws Poisson-timed events on distinct random candidates
// at the given rate (events/second) until the horizon, invoking schedule
// for each (time, victim) pair, and returns how many it scheduled. It
// consumes candidates without replacement, so no member is picked twice.
// Graceful leaves (churnStreamLabel) and crash faults (crashStreamLabel)
// share this construction.
func scheduleChurn(r *rng.Source, rate float64, horizon time.Duration,
	candidates []topology.NodeID, schedule func(at time.Duration, victim topology.NodeID)) int {
	if rate <= 0 {
		return 0
	}
	pool := append([]topology.NodeID(nil), candidates...)
	leaves := 0
	at := time.Duration(r.ExpFloat64(rate) * float64(time.Second))
	for at < horizon && len(pool) > 0 {
		i := r.Intn(len(pool))
		victim := pool[i]
		pool[i] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		schedule(at, victim)
		leaves++
		at += time.Duration(r.ExpFloat64(rate) * float64(time.Second))
	}
	return leaves
}

// PartitionClasses splits the topology into two halves for a partition
// cut. With multiple regions the cut is region-granular: the first
// ceil(R/2) regions (the sender's side) form class 0, the rest class 1.
// A single-region topology splits its member list down the middle, with
// the sender's half in class 0. The same topology always yields the same
// cut, so partition scenarios are pure functions of (scenario, seed).
func PartitionClasses(topo *topology.Topology) map[topology.NodeID]int {
	classes := make(map[topology.NodeID]int, topo.NumNodes())
	if topo.NumRegions() > 1 {
		cut := (topo.NumRegions() + 1) / 2
		for r := 0; r < topo.NumRegions(); r++ {
			side := 0
			if r >= cut {
				side = 1
			}
			for _, n := range topo.Members(topology.RegionID(r)) {
				classes[n] = side
			}
		}
		return classes
	}
	members := topo.Members(0)
	for i, n := range members {
		if i >= (len(members)+1)/2 {
			classes[n] = 1
		}
	}
	return classes
}

// ScenarioLoss builds a scenario's DATA loss model (nil when lossless) from
// the seed's dedicated rng stream, reading only sc's Loss, Burst and
// LossMode; nNodes sizes the hash-mode model's per-sender state. Sweep cells
// of either protocol and repro.Group all get their model here, so one seed
// drops the same packets through whichever door it came.
func ScenarioLoss(sc exp.Scenario, seed uint64, nNodes int) (netsim.LossModel, error) {
	if sc.Loss <= 0 {
		return nil, nil
	}
	only := map[wire.Type]bool{wire.TypeData: true}
	switch sc.LossMode {
	case "":
		// Legacy shared-stream models: draws consume one global rng in send
		// order, entangling every sender. Deterministic, but only on a
		// single loop (see netsim.ShardSafe).
	case "hash":
		// Per-pair counter-hash streams: shard-safe, so lossy cells can
		// run parallel. Seeded from the trial seed like the legacy stream.
		// Burst cells get the Gilbert–Elliott chain under the same legacy
		// parameterization (PGood=Loss/4, PBad/PGB/PBG fixed), with the
		// chain advanced by hash draws instead of the shared rng.
		hashSeed := rng.New(seed).Split(lossStreamLabel).Uint64()
		if sc.Burst {
			return netsim.NewHashBurstLoss(hashSeed,
				sc.Loss/4, 0.9, 0.02, 0.2, nNodes, only), nil
		}
		return netsim.NewHashLoss(hashSeed, sc.Loss, nNodes, only), nil
	default:
		return nil, fmt.Errorf("runner: unknown scenario loss mode %q", sc.LossMode)
	}
	lossRng := rng.New(seed).Split(lossStreamLabel)
	if sc.Burst {
		return &netsim.GilbertElliott{
			PGood: sc.Loss / 4, PBad: 0.9,
			PGB: 0.02, PBG: 0.2,
			Only: only, Rng: lossRng,
		}, nil
	}
	return &netsim.BernoulliLoss{P: sc.Loss, Only: only, Rng: lossRng}, nil
}

// protocolDriver is one recovery protocol as the scenario kernel sees it.
// A protocol's build function (newRRMPDriver, newRMTPDriver) turns the
// kernel's shared inputs — topology, loss model, publisher set, optional
// tracer — into its parameters and cluster, starts its sessions/ACK loops,
// and returns this value; everything else the kernel does is written once.
// The common-random-numbers design across the protocol axis holds by
// construction: there is no second copy of the scheduling or collection
// code for a protocol to drift from.
type protocolDriver struct {
	engine sim.Engine
	net    *netsim.Network
	// publish sends one payload from the timeline client's publisher.
	publish func(client int, payload []byte) wire.MessageID
	// excused reports whether the node already left or crashed: a member
	// drawn by both Poisson streams only has its first fault injected
	// (faults are counted at execution time), and everyone not excused is
	// a survivor for the reliability keys.
	excused func(node topology.NodeID) bool
	leave   func(victim topology.NodeID)
	crash   func(victim topology.NodeID)
	recover func(victim topology.NodeID)
	// received reports whether the node ever received the message.
	received func(node topology.NodeID, id wire.MessageID) bool
	// node returns the node's share of the state both protocols keep.
	node func(node topology.NodeID) nodeView
	// collect adds the protocol-only keys (its //metrics:scope file's).
	collect func(out map[string]float64)
}

// nodeView is one node's slice of the fields rrmp.Metrics and rmtp.Metrics
// share by name, plus its buffer (nil where the node keeps none: rmtp
// receivers).
type nodeView struct {
	delivered, duplicates, repairsSent, unrecoverable int64
	recoveryLatency, bufferingTime                    *stats.Histogram
	buffer                                            *core.Buffer
}

// scheduleScenarioFaults schedules the scenario's churn, crash/recover and
// partition timelines on the driver's engine from the dedicated streams
// (churnStreamLabel, crashStreamLabel): churn events first, then crash
// events (each with its optional recovery), then the partition cut/heal
// pair. protected lists the nodes faults must never hit — the publisher
// set (the sender alone in legacy cells, so their candidate lists keep
// their historical order); the sender is excluded regardless. The returned
// counters are live — read them after the run.
func scheduleScenarioFaults(d protocolDriver, topo *topology.Topology, sc exp.Scenario,
	seed uint64, protected []topology.NodeID) (leaves, crashes *int) {
	leaves, crashes = new(int), new(int)
	var candidates []topology.NodeID
	if sc.Churn > 0 || sc.Crash > 0 {
		shielded := make(map[topology.NodeID]bool, len(protected)+1)
		shielded[topo.Sender()] = true
		for _, p := range protected {
			shielded[p] = true
		}
		candidates = make([]topology.NodeID, 0, topo.NumNodes()-1)
		for n := topology.NodeID(0); int(n) < topo.NumNodes(); n++ {
			if !shielded[n] {
				candidates = append(candidates, n)
			}
		}
	}
	if sc.Churn > 0 {
		scheduleChurn(rng.New(seed).Split(churnStreamLabel), sc.Churn, sc.Horizon,
			candidates, func(at time.Duration, victim topology.NodeID) {
				d.engine.At(at, func() {
					if d.excused(victim) {
						return
					}
					d.leave(victim)
					*leaves++
				})
			})
	}
	if sc.Crash > 0 {
		scheduleChurn(rng.New(seed).Split(crashStreamLabel), sc.Crash, sc.Horizon,
			candidates, func(at time.Duration, victim topology.NodeID) {
				d.engine.At(at, func() {
					if d.excused(victim) {
						return
					}
					d.crash(victim)
					*crashes++
				})
				if sc.CrashRecover > 0 {
					d.engine.At(at+sc.CrashRecover, func() { d.recover(victim) })
				}
			})
	}
	if sc.PartitionAt > 0 {
		classes := PartitionClasses(topo)
		d.engine.At(sc.PartitionAt, func() { d.net.SetPartition(classes) })
		if sc.PartitionDur > 0 {
			d.engine.At(sc.PartitionAt+sc.PartitionDur, func() { d.net.ClearPartition() })
		}
	}
	return leaves, crashes
}

// reachMetrics fills the delivery/reach keys: overall delivery ratio, the
// worst message's reach, and the survivor-scoped variants (crashed and
// departed members are excused, so these read as the reliability guarantee
// under the fault threat model). msgs is the publish-count denominator:
// the scenario's nominal Msgs for legacy cells (the historic contract),
// the timeline's actual publish count for workload cells.
func reachMetrics(out map[string]float64, d protocolDriver, msgs, nNodes, survivors int,
	delivered int64, ids []wire.MessageID) {
	if msgs <= 0 {
		return
	}
	out[MKDeliveryRatio] = float64(delivered) / float64(nNodes*msgs)
	minReach := nNodes
	survMinReach := survivors
	var survDelivered int64
	for _, id := range ids {
		got, survGot := 0, 0
		for node := topology.NodeID(0); int(node) < nNodes; node++ {
			if !d.received(node, id) {
				continue
			}
			got++
			if !d.excused(node) {
				survGot++
			}
		}
		if got < minReach {
			minReach = got
		}
		if survGot < survMinReach {
			survMinReach = survGot
		}
		survDelivered += int64(survGot)
	}
	out[MKMinReachFrac] = float64(minReach) / float64(nNodes)
	if survivors > 0 {
		out[MKSurvivorDeliveryRatio] = float64(survDelivered) / float64(survivors*len(ids))
		out[MKSurvivorMinReachFrac] = float64(survMinReach) / float64(survivors)
	}
}

// RunScenario builds one cluster for the scenario and runs its workload to
// the horizon, returning the cell metrics exp aggregates. It is the
// ScenarioFunc the sweep subsystem runs; everything it does is a pure
// function of (sc, seed), which is what makes sweep aggregates reproducible
// at any parallelism. Scenario.Protocol picks the driver: the RRMP engine
// (default) or the RMTP repair-server baseline.
func RunScenario(sc exp.Scenario, seed uint64) (map[string]float64, error) {
	return runScenario(sc, seed, nil, nil)
}

// RunScenarioWith is RunScenario with the two things only a single run
// has. timeline, when non-nil, replaces the scenario's generated publish
// timeline — the replay path: a recorded rrmp-trace/v1 stream drives the
// run, and an identical timeline yields a byte-identical report. Invalid
// timelines (out of order, non-positive sizes) are rejected up front
// rather than silently scheduled out of order. tracer, when non-nil,
// observes every member's protocol events (rrmp only), and the run takes
// one event loop whatever Scenario.Shards says (see NewCluster); the
// metrics are unchanged by either.
func RunScenarioWith(sc exp.Scenario, seed uint64, timeline workload.Timeline, tracer trace.Tracer) (map[string]float64, error) {
	if timeline != nil && !timeline.Valid() {
		return nil, fmt.Errorf("runner: replay timeline invalid (out-of-order or malformed events)")
	}
	return runScenario(sc, seed, timeline, tracer)
}

// runScenario is the scenario kernel, the only one: topology, loss,
// timeline, publisher set, late joiners, publishes, faults, run, and the
// keys gated `both`, for whichever protocol the driver speaks. A nil
// timeline means "materialize from the scenario" (TimelineFor).
func runScenario(sc exp.Scenario, seed uint64, timeline workload.Timeline, tracer trace.Tracer) (map[string]float64, error) {
	topo, err := ScenarioTopology(sc)
	if err != nil {
		return nil, fmt.Errorf("runner: scenario topology: %w", err)
	}
	// Both protocols get the same model from the same dedicated stream, so
	// a seeded cell drops the identical DATA packets under either.
	loss, err := ScenarioLoss(sc, seed, topo.NumNodes())
	if err != nil {
		return nil, err
	}
	tl := timeline
	if tl == nil {
		if tl, _, err = TimelineFor(sc, seed); err != nil {
			return nil, err
		}
	}
	// The publisher set is a pure function of (topology, clients), so the
	// fault scheduler shields the identical nodes under both protocols —
	// even though RMTP, a single-source protocol, publishes every client's
	// events from its root sender.
	pubs, err := publisherNodes(topo, tl.Clients())
	if err != nil {
		return nil, err
	}
	var d protocolDriver
	switch sc.Protocol {
	case "", "rrmp":
		d, err = newRRMPDriver(sc, seed, topo, loss, pubs, tracer)
	case "rmtp":
		d, err = newRMTPDriver(sc, seed, topo, loss, tracer)
	default:
		err = fmt.Errorf("runner: unknown scenario protocol %q", sc.Protocol)
	}
	if err != nil {
		return nil, err
	}

	// VoD late joiners crash (and drop off the network) at t=0, before any
	// publish, then recover at their staggered join times with the whole
	// prefix to catch up on.
	joiners := lateJoinersFor(topo, sc.Workload, pubs)
	for _, j := range joiners {
		j := j
		d.engine.At(0, func() { d.crash(j.node) })
		d.engine.At(j.at, func() { d.recover(j.node) })
	}

	ids := make([]wire.MessageID, 0, len(tl))
	// One backing buffer serves every publish — each message is the
	// prefix of its drawn size, so steady-state publishing allocates
	// nothing. Every buffer entry aliases this slice; the engines never
	// mutate payloads (pinned by a property test), and Params.CopyOnStore
	// exists for callers that must.
	payloadBuf := make([]byte, tl.MaxBytes())
	for i := range tl {
		ev := tl[i]
		d.engine.At(ev.At, func() {
			ids = append(ids, d.publish(ev.Client, payloadBuf[:ev.Bytes]))
		})
	}

	// Churn (§3.2's handoff under load), crash faults (§3.3's search
	// recovery and the failure detector, with optional per-victim
	// recovery) and the partition timeline; the victims differ between
	// protocols only in what failing *means*.
	leaves, crashes := scheduleScenarioFaults(d, topo, sc, seed, pubs)

	d.engine.RunUntil(sc.Horizon)

	n := topo.NumNodes()
	now := d.engine.Now()
	out := map[string]float64{
		MKLeaves:      float64(*leaves),
		MKPacketsSent: float64(d.net.Stats().TotalSent()),
		MKBytesSent:   float64(d.net.Stats().TotalBytes()),
		MKEvents:      float64(d.engine.Processed()),
	}
	var delivered, duplicates, repairs, unrecoverable int64
	var bufferIntegral, byteIntegral float64
	var peak, peakBytes, survivors int
	var pressureEvictions, budgetDenials int
	var recSum, recN, bufSum, bufN float64
	for node := topology.NodeID(0); int(node) < n; node++ {
		v := d.node(node)
		delivered += v.delivered
		duplicates += v.duplicates
		repairs += v.repairsSent
		if b := v.buffer; b != nil {
			bufferIntegral += b.OccupancyIntegral(now)
			byteIntegral += b.ByteOccupancyIntegral(now)
			if p := b.PeakLen(); p > peak {
				peak = p
			}
			if p := b.PeakBytes(); p > peakBytes {
				peakBytes = p
			}
			pressureEvictions += b.EvictedCount(core.EvictPressure)
			budgetDenials += b.DeniedCount()
		}
		recSum += v.recoveryLatency.Mean() * float64(v.recoveryLatency.N())
		recN += float64(v.recoveryLatency.N())
		bufSum += v.bufferingTime.Mean() * float64(v.bufferingTime.N())
		bufN += float64(v.bufferingTime.N())
		if !d.excused(node) {
			survivors++
			unrecoverable += v.unrecoverable
		}
	}
	msgs := sc.Msgs
	if sc.Workload != nil {
		msgs = len(ids)
	}
	reachMetrics(out, d, msgs, n, survivors, delivered, ids)
	out[MKDuplicates] = float64(duplicates)
	out[MKRepairs] = float64(repairs)
	out[MKBufferIntegralMsgSec] = bufferIntegral
	out[MKPeakBuffered] = float64(peak)
	// The byte-currency keys appear only in cells that engage the payload
	// or budget axes (or a size-drawing workload): pre-axis cells must
	// keep the exact key set the committed golden reports pin byte for
	// byte. (Their values are computed either way; for a 256-byte fixed
	// payload they are just the message metrics × 256.)
	if workloadBytesEngaged(sc) {
		out[MKBufferIntegralByteSec] = byteIntegral
		out[MKPeakBufferedBytes] = float64(peakBytes)
		out[MKPressureEvictions] = float64(pressureEvictions)
		out[MKBudgetDenials] = float64(budgetDenials)
	}
	workloadMetrics(out, sc, len(ids), joiners)
	out[MKCrashes] = float64(*crashes)
	out[MKUnrecoverable] = float64(unrecoverable)
	out[MKPartitionDrops] = float64(d.net.Stats().PartitionDrops())
	if recN > 0 {
		out[MKMeanRecoveryMs] = recSum / recN
	}
	if bufN > 0 {
		out[MKMeanBufferingMs] = bufSum / bufN
	}
	d.collect(out)
	return out, nil
}

// RunSweep expands sw and runs every (cell, trial) pair through the exp
// worker pool with RunScenario as the kernel.
func RunSweep(o exp.Options, sw exp.Sweep) (exp.Report, error) {
	return RunSweeps(o, sw)
}

// execNotes summarizes the cells that cannot honor a requested -shards
// width — their loss model is not shard-safe (netsim.ShardSafe, whose
// reason the note quotes), or they are rmtp cells: instead of failing or
// silently lying about the execution, the report carries a top-level note.
// The note is execution metadata — it never appears at the default width,
// so the committed default-shards reports keep their bytes.
func execNotes(sweeps []exp.Sweep) string {
	shards, pinned, rmtp, total := 0, 0, 0, 0
	var why error
	for _, sw := range sweeps {
		if sw.Shards > shards {
			shards = sw.Shards
		}
		cells := sw.Expand()
		total += len(cells)
		if sw.Shards <= 1 {
			continue
		}
		for _, sc := range cells {
			if sc.Protocol == "rmtp" {
				rmtp++
				continue
			}
			// A malformed loss spec fails its own cell; it is no fallback.
			loss, _ := ScenarioLoss(sc, 0, 0)
			if reason := netsim.ShardSafe(loss); reason != nil {
				pinned, why = pinned+1, reason
			}
		}
	}
	if shards <= 1 || (pinned == 0 && rmtp == 0) {
		return ""
	}
	note := fmt.Sprintf("shards=%d requested; %d of %d cells ran serial (", shards, pinned+rmtp, total)
	sep := ""
	if pinned > 0 {
		note += fmt.Sprintf("%d: %v — use LossMode \"hash\" for shard-safe loss", pinned, why)
		sep = "; "
	}
	if rmtp > 0 {
		note += fmt.Sprintf("%s%d rmtp — the serial baseline never shards", sep, rmtp)
	}
	return note + "); aggregates are byte-identical either way"
}
