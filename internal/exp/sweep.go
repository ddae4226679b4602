package exp

import (
	"cmp"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	policyspec "repro/internal/policy"
	"repro/internal/workload"
)

// TreeShape describes a balanced multi-level recovery hierarchy: Levels
// levels of regions, every inner region with Branch children, and Members
// total group members spread evenly across the regions (remainder to the
// regions nearest the root). It is the topology axis the scale experiments
// sweep: hierarchy depth and fan-out dominate repair cost in deep trees, so
// cells are named by (members, depth, branch) rather than region vectors.
type TreeShape struct {
	Branch  int `json:"branch"`
	Levels  int `json:"levels"`
	Members int `json:"members"`
}

// Token returns the shape's stable name token, e.g. "tree:b4d3m1000".
func (t TreeShape) Token() string {
	return fmt.Sprintf("tree:b%dd%dm%d", t.Branch, t.Levels, t.Members)
}

// Scenario is one fully specified cell of a sweep: protocol, topology,
// fault model, churn, buffering policy, and workload. Durations marshal as
// nanoseconds.
type Scenario struct {
	// Protocol selects the recovery protocol the cell runs: "" or "rrmp"
	// is the paper's RRMP engine (the historic behaviour, omitted from
	// JSON so pre-axis cells keep their bytes); "rmtp" is the tree-based
	// repair-server baseline (§1, §6), driven through the identical
	// workload, fault and byte-budget machinery.
	Protocol string `json:"protocol,omitempty"`
	// Regions are the region sizes (chain hierarchy unless Star).
	Regions []int `json:"regions"`
	// Star attaches every region after the first directly to the sender's
	// region (the paper's Figure 1 shape).
	Star bool `json:"star,omitempty"`
	// Tree, when non-nil, selects a balanced multi-level hierarchy instead
	// of the Regions vector (which is then ignored).
	Tree *TreeShape `json:"tree,omitempty"`
	// Loss is the independent DATA loss probability (recovery traffic stays
	// lossless, as in §4).
	Loss float64 `json:"loss"`
	// LossMode selects how loss draws are streamed: "" is the legacy model
	// (one shared rng consumed in global send order — deterministic, but
	// only on a single event loop), "hash" draws per-sender counter-hash
	// streams (netsim.HashLoss), which shard loops reproduce exactly and
	// so can run parallel. The mode is part of the cell's identity (it
	// changes which packets drop), hence serialized; legacy cells omit it.
	LossMode string `json:"loss_mode,omitempty"`
	// Burst switches to a Gilbert–Elliott burst channel at roughly Loss.
	Burst bool `json:"burst,omitempty"`
	// Churn is the expected number of graceful leaves per second, drawn as
	// a Poisson process over non-sender members (§3.2's handoff path).
	Churn float64 `json:"churn"`
	// Crash is the expected number of crash faults per second, drawn as an
	// independent Poisson process over non-sender members. Crashed members
	// stop without handoff and their traffic vanishes, forcing §3.3's
	// search path (and the failure detector) to carry recovery.
	Crash float64 `json:"crash,omitempty"`
	// CrashRecover, when positive, brings each crashed member back after
	// this downtime with its protocol state intact; it then re-recovers
	// every gap it missed. Zero means crash-stop: the member never returns.
	CrashRecover time.Duration `json:"crash_recover_ns,omitempty"`
	// PartitionAt, when positive, splits the group into two halves at that
	// instant (along region boundaries when there are multiple regions;
	// otherwise down the middle of the member list) and drops every packet
	// crossing the cut.
	PartitionAt time.Duration `json:"partition_at_ns,omitempty"`
	// PartitionDur is how long the partition lasts before a deterministic
	// heal event reconnects the halves. Zero with PartitionAt set means
	// the partition never heals within the run.
	PartitionDur time.Duration `json:"partition_dur_ns,omitempty"`
	// Policy is the buffering policy spec — a canonical registry kind
	// (two-phase|fixed|all|hash|adaptive), a historic alias, or a
	// parameterized spec like "adaptive:tmin=20ms,tmax=200ms" (see
	// internal/policy). RMTP cells carry the placeholder "server".
	Policy string `json:"policy"`
	// FixedHold is Policy "fixed"'s retention (default policy.DefaultFixedHold).
	FixedHold time.Duration `json:"fixed_hold_ns,omitempty"`
	// C, Lambda and RepairBackoff override the corresponding protocol
	// parameters when positive (zero keeps the paper's §4 defaults).
	C             float64       `json:"c,omitempty"`
	Lambda        float64       `json:"lambda,omitempty"`
	RepairBackoff time.Duration `json:"repair_backoff_ns,omitempty"`
	// Msgs, Gap and Horizon define the publish workload and run length.
	Msgs    int           `json:"msgs"`
	Gap     time.Duration `json:"gap_ns"`
	Horizon time.Duration `json:"horizon_ns"`
	// PayloadBytes is the per-message payload size in bytes (the mean,
	// under a randomized PayloadModel). Zero keeps the historic fixed
	// 256-byte payload every pre-axis experiment published.
	PayloadBytes int `json:"payload_bytes,omitempty"`
	// PayloadModel selects the payload-size model ("fixed" when empty;
	// "uniform" and "lognormal" draw per-message sizes around
	// PayloadBytes — see internal/workload's size models).
	PayloadModel string `json:"payload_model,omitempty"`
	// ByteBudget caps every member's buffer at this many payload bytes
	// (rrmp.Params.ByteBudget): stores past the cap displace older
	// entries, short-term first. Zero means unlimited.
	ByteBudget int `json:"byte_budget,omitempty"`
	// Workload, when non-nil, replaces the single-sender constant-gap
	// publish stream (Msgs/Gap/PayloadBytes/PayloadModel) with a
	// multi-client workload.Spec: N publishers, per-client arrival
	// processes, Zipf volume skew, and optionally the VoD late-join
	// regime. Nil keeps the historic shape, omitted from JSON so legacy
	// cells keep their bytes.
	Workload *workload.Spec `json:"workload,omitempty"`
	// Shards is an execution knob, not part of the cell's identity: the
	// region-sharded event loops the trial asks for (<= 1 means the serial
	// engine; runner's laneWidth decides how many it gets). RunSweeps sets
	// it to the trial's share of the CPU budget. Aggregates are
	// byte-identical at any value — the same contract as Options.Parallel —
	// so it is excluded from JSON and from Name.
	Shards int `json:"-"`
}

// Name returns the cell's stable human-readable identifier.
func (s Scenario) Name() string {
	var topo string
	if s.Tree != nil {
		topo = s.Tree.Token()
	} else {
		sizes := make([]string, len(s.Regions))
		for i, n := range s.Regions {
			sizes[i] = fmt.Sprint(n)
		}
		shape := ""
		if s.Star {
			shape = "star:"
		}
		topo = shape + strings.Join(sizes, "+")
	}
	lossTok := fmt.Sprintf("%.2f", s.Loss)
	if s.LossMode != "" {
		// The stream mode changes which packets drop, so it is part of the
		// cell's identity; legacy cells keep their bare numeric token.
		lossTok += ":" + s.LossMode
	}
	name := fmt.Sprintf("regions=%s loss=%s churn=%.2g", topo, lossTok, s.Churn)
	// Fault tokens appear only when the fault is present, so cells from
	// crash-free sweeps keep their historical names.
	if s.Crash > 0 {
		name += fmt.Sprintf(" crash=%.2g", s.Crash)
		if s.CrashRecover > 0 {
			name += fmt.Sprintf("/%v", s.CrashRecover)
		}
	}
	if s.PartitionAt > 0 {
		if s.PartitionDur > 0 {
			name += fmt.Sprintf(" part=%v/%v", s.PartitionAt, s.PartitionDur)
		} else {
			name += fmt.Sprintf(" part=%v/open", s.PartitionAt)
		}
	}
	// Payload and budget tokens appear only when the byte axes are
	// engaged, so cells from pre-axis sweeps keep their historical names.
	if s.PayloadBytes > 0 || s.PayloadModel != "" {
		bytes := s.PayloadBytes
		if bytes <= 0 {
			bytes = 256
		}
		if s.PayloadModel != "" && s.PayloadModel != "fixed" {
			name += fmt.Sprintf(" payload=%s:%d", s.PayloadModel, bytes)
		} else {
			name += fmt.Sprintf(" payload=%d", bytes)
		}
	}
	if s.ByteBudget > 0 {
		name += fmt.Sprintf(" budget=%d", s.ByteBudget)
	}
	// The workload token appears only for multi-client cells, so every
	// single-sender cell keeps its historical name.
	if s.Workload != nil {
		name += " wl=" + s.Workload.Token()
	}
	// The protocol token appears only for non-RRMP cells, so every
	// historical cell keeps its name.
	if s.Protocol != "" && s.Protocol != "rrmp" {
		name += " proto=" + s.Protocol
	}
	return name + " policy=" + s.Policy
}

// Sweep declares a scenario matrix. Expand takes the cartesian product of
// the ten swept dimensions (the slice fields: Workloads, Protocols,
// PayloadSizes, Budgets, Regions+Trees, Losses, Churns, Crashes,
// Partitions, Policies); the scalar fields apply to every cell. Empty
// dimensions default to a single baseline value, so a zero Sweep expands to
// one lossless, churn-free, two-phase cell.
type Sweep struct {
	// Regions lists the region-size vectors to sweep (default [[100]]).
	Regions [][]int `json:"regions,omitempty"`
	// Star applies to every Regions cell (chain hierarchy otherwise).
	Star bool `json:"star,omitempty"`
	// Trees lists balanced multi-level hierarchies to sweep in addition to
	// Regions. Tree cells expand after all Regions cells, so adding a tree
	// axis never moves legacy cell positions.
	Trees []TreeShape `json:"trees,omitempty"`
	// Losses lists DATA loss probabilities (default [0]).
	Losses []float64 `json:"losses,omitempty"`
	// Burst applies to every lossy cell.
	Burst bool `json:"burst,omitempty"`
	// Churns lists graceful-leave rates in members/second (default [0]).
	Churns []float64 `json:"churns,omitempty"`
	// Crashes lists crash-fault rates in members/second (default [0]).
	Crashes []float64 `json:"crashes,omitempty"`
	// CrashRecover applies to every crash cell: downtime before a crashed
	// member returns (0 = crash-stop, the default threat model).
	CrashRecover time.Duration `json:"crash_recover_ns,omitempty"`
	// Partitions lists partition episode durations (default [0] = none).
	// A cell with duration d > 0 partitions at PartitionAt and heals d
	// later.
	Partitions []time.Duration `json:"partitions_ns,omitempty"`
	// PartitionAt is when partition episodes begin (default Horizon/4).
	PartitionAt time.Duration `json:"partition_at_ns,omitempty"`
	// Policies lists buffering policies (default ["two-phase"]).
	Policies []string `json:"policies,omitempty"`
	// FixedHold is "fixed" cells' retention (default policy.DefaultFixedHold).
	FixedHold time.Duration `json:"fixed_hold_ns,omitempty"`
	// C, Lambda and RepairBackoff apply to every cell when positive (zero
	// keeps the paper's §4 defaults).
	C             float64       `json:"c,omitempty"`
	Lambda        float64       `json:"lambda,omitempty"`
	RepairBackoff time.Duration `json:"repair_backoff_ns,omitempty"`
	// Msgs, Gap and Horizon define every cell's workload (defaults: 20
	// messages, 20 ms apart, 5 s horizon).
	Msgs    int           `json:"msgs,omitempty"`
	Gap     time.Duration `json:"gap_ns,omitempty"`
	Horizon time.Duration `json:"horizon_ns,omitempty"`
	// PayloadSizes lists payload sizes in bytes to sweep; 0 means the
	// historic fixed 256 (default [0]). Together with Budgets this is the
	// outermost expansion axis, defaults first, so appending non-default
	// sizes to a matrix never moves its legacy cells.
	PayloadSizes []int `json:"payload_sizes,omitempty"`
	// PayloadModel applies to every cell ("fixed" when empty; "uniform"
	// or "lognormal" draw per-message sizes around the cell's payload
	// size).
	PayloadModel string `json:"payload_model,omitempty"`
	// Budgets lists per-member buffer byte budgets to sweep; 0 means
	// unlimited (default [0]).
	Budgets []int `json:"budgets,omitempty"`
	// Protocols lists recovery protocols to sweep ("rrmp"/"" and "rmtp";
	// default [""] = RRMP only). The protocol axis is the outermost
	// expansion dimension with RRMP first, so adding "rmtp" to a matrix
	// appends a whole baseline family after every existing cell without
	// moving any of them. RMTP cells collapse the Policies axis to the
	// single value "server": the baseline's buffering discipline is the
	// repair server itself (buffer-all under ACK trimming), so RRMP
	// policy names do not apply.
	Protocols []string `json:"protocols,omitempty"`
	// LossMode applies to every lossy cell; see Scenario.LossMode.
	LossMode string `json:"loss_mode,omitempty"`
	// Workloads lists multi-client workload specs to sweep; nil entries
	// mean the legacy single-sender stream (default [nil]). The workload
	// axis is the OUTERMOST expansion dimension with the legacy shape
	// first, so adding workloads to a matrix appends whole families after
	// every existing cell without moving (or re-byting) any of them.
	Workloads []*workload.Spec `json:"workloads,omitempty"`
}

// DefaultSweep returns the standing benchmark matrix rrmp-sim runs when no
// dimensions are given: 3 topologies × 2 loss rates × 2 churn rates × 2
// crash rates × 2 partition settings × 2 policies, crossed with the byte
// axes' payload {historic 256, 1 KB} × budget {unlimited, 8 KB} family,
// all of it run under both protocols. The RRMP family leads and the
// default (0, 0) byte combination leads within it, so the first 96 cells
// are the historical matrix unchanged, cells 97–384 are the byte-axis
// families (headroom, byte-visible, and genuine-pressure regimes), and
// the RMTP repair-server baseline appends after cell 384 (192 cells: the
// policy axis collapses to "server"). The two-region vector exists so
// partition cells cut along a region boundary. BENCH_sweep.json tracks
// this matrix across PRs — it is the repo's machine-tracked RRMP-vs-RMTP
// record across the full fault matrix.
func DefaultSweep() Sweep {
	return Sweep{
		Regions:      [][]int{{50}, {100}, {30, 30}},
		Losses:       []float64{0.05, 0.20},
		Churns:       []float64{0, 1},
		Crashes:      []float64{0, 1},
		Partitions:   []time.Duration{0, time.Second},
		Policies:     []string{"two-phase", "fixed"},
		PayloadSizes: []int{0, 1024},
		Budgets:      []int{0, 8 * 1024},
		Protocols:    []string{"rrmp", "rmtp"},
	}
}

// ScaleSweep returns the standing scale matrix (rrmp-sim -sweep-scale): a
// members × depth grid of balanced branch-4 trees under the default loss
// rate, with and without churn. BENCH_scale.json records this matrix,
// followed by ScaleSweepXL, as an ordinary sweep report. Levels counts
// region levels, so levels L is hierarchy depth L-1 parent hops; the
// paper's deep-hierarchy regime starts at 3 levels.
func ScaleSweep() Sweep {
	return Sweep{
		Trees: []TreeShape{
			{Branch: 4, Levels: 2, Members: 1000},
			{Branch: 4, Levels: 3, Members: 1000},
			{Branch: 4, Levels: 4, Members: 1000},
			{Branch: 4, Levels: 2, Members: 2000},
			{Branch: 4, Levels: 3, Members: 2000},
			{Branch: 4, Levels: 4, Members: 2000},
			{Branch: 4, Levels: 2, Members: 5000},
			{Branch: 4, Levels: 3, Members: 5000},
			{Branch: 4, Levels: 4, Members: 5000},
		},
		Losses:   []float64{0.05},
		Churns:   []float64{0, 1},
		Policies: []string{"two-phase"},
	}
}

// ScaleSweepXL returns the extra-large scale rows appended after ScaleSweep
// in BENCH_scale.json: 10k members on the branch-4 shape and 100k members
// on a branch-8 4-level tree (both hierarchy depth 3 — the branch widens at
// 100k so per-region membership views stay bounded). XL cells use hash-mode
// loss so the sharded engine can run them parallel; they are new cells, so
// the mode changes no existing bytes.
//
// The XL workload is a trimmed burst probe — 10 messages over a 2 s horizon
// instead of the standing matrix's 20/5 s — sized so one 100k-member trial
// (~4.2M events) finishes inside the 10 s scale bound on a single core. The
// trim only shortens the tail: repair convergence at these shapes completes
// well inside the horizon, so delivery ratios match the full-length run to
// four digits (0.9998 measured on both).
func ScaleSweepXL() Sweep {
	return Sweep{
		Trees: []TreeShape{
			{Branch: 4, Levels: 4, Members: 10000},
			{Branch: 8, Levels: 4, Members: 100000},
		},
		Losses:   []float64{0.05},
		LossMode: "hash",
		Churns:   []float64{0, 1},
		Policies: []string{"two-phase"},
		Msgs:     10,
		Horizon:  2 * time.Second,
	}
}

// MultiClientWorkload is the workload family's many-publishers cell: 8
// concurrent Poisson publishers with Zipf-1.1 volume skew (the busiest
// client publishes ~25 of the 64 messages, the quietest ~3) and
// heavy-tailed lognormal payloads — the ServeGen-style shape where
// per-source reception state and byte accounting both matter.
func MultiClientWorkload() *workload.Spec {
	return &workload.Spec{
		Clients: 8, Msgs: 64,
		Arrival: workload.ArrivalPoisson, Gap: 100 * time.Millisecond,
		ZipfS:     1.1,
		SizeModel: workload.SizeLognormal, SizeMean: 512,
	}
}

// BurstyWorkload is the workload family's diurnal-burst cell: 4 publishers
// emitting 4-message bursts, with rate windows that run 4x hot for the
// first second and cool to half rate afterwards — the §2.1 burst regime
// whose tail losses session messages exist to detect, now phase-shifted
// across clients.
func BurstyWorkload() *workload.Spec {
	return &workload.Spec{
		Clients: 4, Msgs: 48,
		Arrival: workload.ArrivalBurst, Gap: 200 * time.Millisecond,
		BurstLen: 4, BurstGap: 5 * time.Millisecond,
		Windows: []workload.Window{
			{From: 0, To: time.Second, Factor: 4},
			{From: 2 * time.Second, To: 4 * time.Second, Factor: 0.5},
		},
	}
}

// VoDPrefixPush is the workload family's video-on-demand cell (after Nair
// & Jayarekha's prefix-push regime): one sender pushes a 60-message 1 KiB
// prefix over the first ~1.2 s, and a quarter of the members join late —
// between 1.5 s and 2.5 s — needing the entire prefix recovered. This is
// the regime the paper's two-phase long-term set was designed for: a
// fixed-hold policy has evicted the early prefix everywhere by the time
// the joiners arrive.
func VoDPrefixPush() *workload.Spec {
	return &workload.Spec{
		Clients: 1, Msgs: 60,
		Arrival: workload.ArrivalConstant, Gap: 20 * time.Millisecond,
		SizeModel: workload.SizeFixed, SizeMean: 1024,
		LateJoinFrac: 0.25, LateJoinAt: 1500 * time.Millisecond,
		LateJoinSpread: time.Second,
	}
}

// WorkloadPreset returns the standing workload shape a preset name selects
// (mc, bursty or vod — the names the -workload flag accepts in place of a
// key=val spec), or nil for any other name.
func WorkloadPreset(name string) *workload.Spec {
	switch name {
	case "mc":
		return MultiClientWorkload()
	case "bursty":
		return BurstyWorkload()
	case "vod":
		return VoDPrefixPush()
	}
	return nil
}

// WorkloadSweep returns the standing multi-client workload matrix appended
// after DefaultSweep in BENCH_sweep.json: the three workload shapes
// (multi-client Zipf, diurnal bursts, VoD prefix-push) over a two-region
// topology, both loss rates, both buffering policies, and both protocols.
// Hash-mode loss keeps every rrmp cell shard-safe — the whole family runs
// parallel. A separate sweep rather than more DefaultSweep axes so the
// committed 576-cell matrix keeps its bytes.
func WorkloadSweep() Sweep {
	return Sweep{
		Workloads: []*workload.Spec{MultiClientWorkload(), BurstyWorkload(), VoDPrefixPush()},
		Regions:   [][]int{{30, 30}},
		Losses:    []float64{0.05, 0.20},
		LossMode:  "hash",
		Policies:  []string{"two-phase", "fixed"},
		Protocols: []string{"rrmp", "rmtp"},
	}
}

// AdaptiveSweep returns the demand-aware policy family appended after
// WorkloadSweep in BENCH_sweep.json: the diurnal-burst workload — the
// regime whose hot windows concentrate request demand on a few sources —
// over a two-region topology at both loss rates, contrasting the adaptive
// policy against the two legacy retention disciplines it interpolates
// between (ablation A8 reads the same contrast at one loss rate). RRMP
// only: the adaptive contract has no meaning for the rmtp repair server.
// A separate sweep so the committed 594-cell matrix keeps its bytes.
func AdaptiveSweep() Sweep {
	return Sweep{
		Workloads: []*workload.Spec{BurstyWorkload()},
		Regions:   [][]int{{30, 30}},
		Losses:    []float64{0.05, 0.20},
		LossMode:  "hash",
		Policies:  []string{"two-phase", "fixed", "adaptive"},
	}
}

// Expand returns the cartesian product in a fixed order: the workload
// axis outermost (the legacy single-sender shape — nil — before any
// multi-client family), then the protocol
// axis (RRMP families before any "rmtp" baseline family), then
// payload sizes and byte budgets (so the default (0, 0) block — when
// present — reproduces the pre-axis matrix cell for cell before any
// byte-axis family follows), then the topology axis (all Regions vectors,
// then all Trees), then losses, churns, and policies innermost. "rrmp" is
// normalized to the canonical empty Protocol, and RMTP cells replace the
// policy dimension with the single value "server" (see Sweep.Protocols).
// The order is part of the report schema — cells keep their position
// across runs.
func (sw Sweep) Expand() []Scenario {
	regions := sw.Regions
	if len(regions) == 0 && len(sw.Trees) == 0 {
		regions = [][]int{{100}}
	}
	losses := orOne(sw.Losses, 0)
	churns := orOne(sw.Churns, 0)
	crashes := orOne(sw.Crashes, 0)
	partitions := orOne(sw.Partitions, 0)
	// Policy tokens canonicalize through the registry, so a historic alias
	// ("fixed-hold") and its canonical kind ("fixed") name the same cell.
	// Committed matrices already use canonical tokens; their bytes do not
	// change.
	policies := make([]string, len(sw.Policies))
	for i, p := range sw.Policies {
		policies[i] = policyspec.Canonical(p)
	}
	if len(policies) == 0 {
		policies = []string{policyspec.KindTwoPhase}
	}
	msgs := positiveOr(sw.Msgs, 20)
	gap := positiveOr(sw.Gap, 20*time.Millisecond)
	horizon := positiveOr(sw.Horizon, 5*time.Second)
	hold := positiveOr(sw.FixedHold, policyspec.DefaultFixedHold)
	partAt := positiveOr(sw.PartitionAt, horizon/4)
	payloads := orOne(sw.PayloadSizes, 0)
	budgets := orOne(sw.Budgets, 0)
	protocols := orOne(sw.Protocols, "")
	workloads := orOne(sw.Workloads, nil)

	type topoCell struct {
		regions []int
		tree    *TreeShape
	}
	topos := make([]topoCell, 0, len(regions)+len(sw.Trees))
	for _, r := range regions {
		topos = append(topos, topoCell{regions: r})
	}
	for i := range sw.Trees {
		t := sw.Trees[i]
		topos = append(topos, topoCell{tree: &t})
	}

	out := make([]Scenario, 0, len(workloads)*len(protocols)*len(payloads)*len(budgets)*
		len(topos)*len(losses)*len(churns)*len(crashes)*len(partitions)*len(policies))
	for _, wl := range workloads {
		for _, proto := range protocols {
			if proto == "rrmp" {
				proto = "" // canonical default, so RRMP cells keep their JSON bytes
			}
			pols := policies
			if proto == "rmtp" {
				// The baseline's buffering discipline is the repair server
				// itself; RRMP policy names do not apply, so the axis
				// collapses to one cell per combination.
				pols = []string{"server"}
			}
			for _, pb := range payloads {
				for _, bud := range budgets {
					for _, tc := range topos {
						for _, l := range losses {
							for _, ch := range churns {
								for _, cr := range crashes {
									for _, pd := range partitions {
										for _, p := range pols {
											sc := Scenario{
												Protocol:      proto,
												Regions:       append([]int(nil), tc.regions...),
												Star:          sw.Star && tc.tree == nil,
												Tree:          tc.tree,
												Loss:          l,
												Burst:         sw.Burst,
												Churn:         ch,
												Crash:         cr,
												Policy:        p,
												FixedHold:     hold,
												C:             sw.C,
												Lambda:        sw.Lambda,
												RepairBackoff: sw.RepairBackoff,
												Msgs:          msgs,
												Gap:           gap,
												Horizon:       horizon,
												PayloadBytes:  pb,
												PayloadModel:  sw.PayloadModel,
												ByteBudget:    bud,
												Workload:      wl,
											}
											if l > 0 {
												sc.LossMode = sw.LossMode
											}
											if cr > 0 {
												sc.CrashRecover = sw.CrashRecover
											}
											if pd > 0 {
												sc.PartitionAt = partAt
												sc.PartitionDur = pd
											}
											out = append(out, sc)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Validate checks the declaration before any cell runs, so an out-of-domain
// value fails at expansion time with an error naming the field and value
// instead of running to completion as a cell named "loss=NaN": loss
// probabilities inside [0, 1]; rates, durations, counts and byte sizes
// non-negative; protocol, loss-mode and payload-model tokens known; and the
// policy axis parseable by the registry (a typo fails with the known-policy
// menu, policy.UnknownKindError via errors.As). Sweeps whose protocols are
// all "rmtp" skip the policy check: their policy axis collapses to the
// "server" placeholder.
func (sw Sweep) Validate() error {
	for _, l := range sw.Losses {
		if !(l >= 0 && l <= 1) { // false for NaN too
			return fmt.Errorf("exp: sweep loss %g outside [0, 1]", l)
		}
	}
	if err := cmp.Or(
		nonNegative("churn rate", sw.Churns...), nonNegative("crash rate", sw.Crashes...),
		nonNegative("c", sw.C), nonNegative("lambda", sw.Lambda),
		nonNegative("gap", sw.Gap), nonNegative("horizon", sw.Horizon),
		nonNegative("fixed hold", sw.FixedHold), nonNegative("repair backoff", sw.RepairBackoff),
		nonNegative("crash-recover downtime", sw.CrashRecover),
		nonNegative("partition instant", sw.PartitionAt), nonNegative("partition duration", sw.Partitions...),
		nonNegative("msgs", sw.Msgs),
		nonNegative("payload size", sw.PayloadSizes...), nonNegative("byte budget", sw.Budgets...),
	); err != nil {
		return err
	}
	if sw.LossMode != "" && sw.LossMode != "hash" {
		return fmt.Errorf("exp: sweep loss mode %q unknown (want \"\" or \"hash\")", sw.LossMode)
	}
	if _, err := workload.NewSizeModel(sw.PayloadModel, 0); err != nil {
		return fmt.Errorf("exp: sweep payload model: %w", err)
	}
	rrmpFamily := len(sw.Protocols) == 0
	for _, p := range sw.Protocols {
		switch p {
		case "", "rrmp":
			rrmpFamily = true
		case "rmtp":
		default:
			return fmt.Errorf("exp: sweep protocol %q unknown (want rrmp or rmtp)", p)
		}
	}
	if !rrmpFamily {
		return nil
	}
	for _, p := range sw.Policies {
		if _, err := policyspec.Parse(p); err != nil {
			return fmt.Errorf("exp: sweep policy %q: %w", p, err)
		}
	}
	return nil
}

// nonNegative returns an error naming the field and the first value that is
// negative (or NaN).
func nonNegative[T int | float64 | time.Duration](field string, vals ...T) error {
	for _, v := range vals {
		if !(v >= 0) {
			return fmt.Errorf("exp: sweep %s %v is negative or not a number", field, v)
		}
	}
	return nil
}

// orOne is axis, or the one-value axis {def} when axis is empty.
func orOne[T any](axis []T, def T) []T {
	if len(axis) == 0 {
		return []T{def}
	}
	return axis
}

// positiveOr is v, or def when v is not positive.
func positiveOr[T int | time.Duration](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// ScenarioFunc runs one seeded trial of one scenario and returns its
// metrics. internal/runner provides the canonical implementation.
type ScenarioFunc func(sc Scenario, seed uint64) (map[string]float64, error)

// Cell is one aggregated sweep cell.
type Cell struct {
	Name      string    `json:"name"`
	Scenario  Scenario  `json:"scenario"`
	Aggregate Aggregate `json:"aggregate"`
}

// ReportSchema identifies the sweep report's JSON layout; bump it on any
// incompatible change so downstream trackers can dispatch.
const ReportSchema = "rrmp-sweep/v1"

// Report is a whole sweep's output. It deliberately contains nothing
// scheduling- or wall-clock-dependent: the same (sweep, trials, base seed)
// marshal to byte-identical JSON at any parallelism.
type Report struct {
	Schema   string `json:"schema"`
	BaseSeed uint64 `json:"base_seed"`
	Trials   int    `json:"trials"`
	Cells    []Cell `json:"cells"`
}

// RunSweeps expands every sweep in order and runs every (cell, trial) pair
// of the concatenated cell list through one shared worker pool, so a wide
// matrix with few trials parallelizes as well as a narrow one with many.
// Concatenation is how BENCH_sweep.json gains new cell families without
// re-byting committed ones: each family is its own sweep, appended after
// the previous ones. Trial i uses the same seed in every cell of the whole
// concatenation — common random numbers, the paired design that lets
// per-cell differences be read as policy effects rather than draw luck.
//
// The pool divides one CPU budget, o.Parallel cores: the (cell, trial)
// jobs take the cores first, and each trial asks for the rest as
// Scenario.Shards = max(1, Parallel/jobs) region lanes. The stored cells
// keep their Scenario as declared.
func RunSweeps(o Options, sweeps []Sweep, run ScenarioFunc) (Report, error) {
	o = o.normalized()
	var scenarios []Scenario
	for _, sw := range sweeps {
		if err := sw.Validate(); err != nil {
			return Report{}, err
		}
		scenarios = append(scenarios, sw.Expand()...)
	}
	// A cell is aggregated by whichever job finishes its last trial, and
	// its trial maps are dropped then, so the pool holds the trial maps of
	// the cells in flight only, not of the whole matrix. The reduction
	// still reads the maps in trial order.
	results := make([][]map[string]float64, len(scenarios))
	for i := range results {
		results[i] = make([]map[string]float64, o.Trials)
	}
	pending := make([]atomic.Int32, len(scenarios))
	for i := range pending {
		pending[i].Store(int32(o.Trials))
	}
	aggs := make([]Aggregate, len(scenarios))
	jobs := len(scenarios) * o.Trials
	lanes := max(1, o.Parallel/max(1, jobs))
	err := runJobs(o.Parallel, jobs, func(j int) error {
		cell, trial := j/o.Trials, j%o.Trials
		seed := TrialSeed(o.BaseSeed, trial)
		sc := scenarios[cell]
		sc.Shards = lanes
		m, err := run(sc, seed)
		if err != nil {
			return fmt.Errorf("exp: cell %q trial %d (seed %#x): %w",
				scenarios[cell].Name(), trial, seed, err)
		}
		results[cell][trial] = m
		if pending[cell].Add(-1) == 0 {
			aggs[cell] = AggregateTrials(results[cell])
			results[cell] = nil
		}
		return nil
	})
	if err != nil {
		return Report{}, err
	}

	rep := Report{Schema: ReportSchema, BaseSeed: o.BaseSeed, Trials: o.Trials,
		Cells: make([]Cell, len(scenarios))}
	for i, sc := range scenarios {
		rep.Cells[i] = Cell{Name: sc.Name(), Scenario: sc, Aggregate: aggs[i]}
	}
	return rep, nil
}
