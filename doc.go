// Package repro is a reproduction of "Optimizing Buffer Management for
// Reliable Multicast" (Xiao, Birman, van Renesse; DSN 2002).
//
// The paper's contribution — a two-phase buffer management algorithm for
// the randomized reliable multicast protocol RRMP — lives in internal/core
// (the buffering state machine and policies) and internal/rrmp (the
// protocol engine: randomized local/remote error recovery, the
// search-for-bufferer protocol, long-term buffer handoff on leave). This
// package is the public facade: it assembles complete simulated
// deployments, runs workloads, and runs declarative scenario sweeps.
//
// # Quick start
//
//	g, err := repro.NewGroup(repro.WithRegions(50), repro.WithDataLoss(0.2))
//	if err != nil { ... }
//	g.StartSessions()
//	id := g.Publish([]byte("hello"))
//	g.Run(2 * time.Second)                 // advance virtual time
//	fmt.Println(g.CountReceived(id))       // 50: every member recovered
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
// implosion, churn handoff, the λ tradeoff, and stability-detection
// traffic overhead. The drivers live in internal/runner.
//
// # Sweeps and statistics
//
// RunSweep runs declarative scenario matrices (region layout × data loss ×
// churn × buffering policy, under either protocol: Scenario.Protocol
// selects the RRMP engine or the RMTP repair-server baseline) across a
// bounded worker pool, with every metric aggregated to mean / stddev /
// 95% CI over independently seeded trials (internal/exp). Aggregates are
// byte-identical at any parallelism. cmd/rrmp-sim exposes the same
// machinery via -sweep, -trials, -parallel and -json, and records the
// default matrix — including the RRMP-vs-RMTP families — in
// BENCH_sweep.json. See README.md for the operator's manual and DESIGN.md
// for the rationale.
package repro
