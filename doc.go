// Package repro is a reproduction of "Optimizing Buffer Management for
// Reliable Multicast" (Xiao, Birman, van Renesse; DSN 2002).
//
// The paper's contribution — a two-phase buffer management algorithm for
// the randomized reliable multicast protocol RRMP — lives in internal/core
// (the buffering state machine and policies) and internal/rrmp (the
// protocol engine: randomized local/remote error recovery, the
// search-for-bufferer protocol, long-term buffer handoff on leave). This
// package is the public facade: NewGroup builds one simulated deployment
// from the Scenario a sweep cell declares, for a caller to script.
//
// # Quick start
//
//	g, err := repro.NewGroup(repro.GroupConfig{
//		Scenario: repro.Scenario{Regions: []int{50}, Loss: 0.2},
//		Seed:     1,
//	})
//	if err != nil { ... }
//	g.StartSessions()
//	id := g.Publish([]byte("hello"))
//	g.Run(2 * time.Second)                 // advance virtual time
//	fmt.Println(g.CountReceived(id))       // 50: every member recovered
//
// The package's examples (go test -run Example -v .) script a lossy
// stream, churn, a stock ticker and a WAN blackout, each with its output
// pinned.
//
// All time is virtual (a deterministic discrete-event simulator): runs are
// exactly reproducible from a seed, and two identical runs produce
// identical packet interleavings.
//
// # Reproducing the paper
//
// cmd/rrmp-figures regenerates the evaluation (§4) — Figures 3 and 4
// (long-term bufferer distribution), Figure 6 (feedback-based buffering
// time), Figure 7 (received vs buffered over time), and Figures 8 and 9
// (search time) — and the ablations DESIGN.md motivates: buffering-policy
// cost, load balance against a tree protocol, multicast-query reply
// implosion, churn handoff, the λ tradeoff, stability-detection traffic
// overhead, VoD late joiners and bursty demand. They are one catalogue,
// internal/runner's Figures: each entry returns a table, and -trials
// aggregates any of them to mean ± 95% CI over seeded trials.
//
// # Sweeps and statistics
//
// cmd/rrmp-sim runs declarative scenario matrices (region layout × data
// loss × churn × buffering policy, under RRMP or the RMTP repair-server
// baseline) across a bounded worker pool, aggregating every metric to
// mean / stddev / 95% CI over independently seeded trials (internal/exp,
// internal/runner); aggregates are byte-identical at any parallelism. It
// records the default matrix in BENCH_sweep.json. See README.md for the
// operator's manual and DESIGN.md for the rationale.
package repro
