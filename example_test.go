package repro_test

import (
	"fmt"
	"log"
	"slices"
	"time"

	"repro"
)

// ExampleNewGroup publishes one message over a lossy 50-member region and
// lets randomized recovery repair every loss.
func ExampleNewGroup() {
	g, err := repro.NewGroup(repro.GroupConfig{
		Scenario: repro.Scenario{Regions: []int{50}, Loss: 0.2},
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	g.StartSessions()
	id := g.Publish([]byte("hello"))
	g.Run(2 * time.Second) // advance virtual time
	fmt.Println(g.CountReceived(id))
	// Output: 50
}

// Example_quickstart publishes a message stream over a lossy 50-member
// region and watches RRMP's randomized recovery and two-phase buffering
// at work. 20% of the initial multicast copies are lost independently
// per receiver; recovery traffic is lossless, as in the paper's §4
// evaluation. One member exhausts its local tries on 0:6 and counts it
// unrecoverable.
func Example_quickstart() {
	g, err := repro.NewGroup(repro.GroupConfig{
		Scenario: repro.Scenario{Regions: []int{50}, Loss: 0.20},
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}
	g.StartSessions() // sender heartbeats so tail losses are detected

	// Publish ten messages, 20 ms apart.
	var ids []repro.MessageID
	for i := 0; i < 10; i++ {
		g.At(time.Duration(i)*20*time.Millisecond, func() {
			ids = append(ids, g.Publish([]byte(fmt.Sprintf("update-%d", i))))
		})
	}

	// Advance virtual time; every event (losses, NAKs, repairs, idle
	// timers, long-term elections) runs deterministically.
	g.Run(2 * time.Second)

	for _, id := range ids {
		fmt.Printf("message %-6v delivered to %d/%d members, still buffered at %d\n",
			id, g.CountReceived(id), g.NumMembers(), g.CountBuffered(id))
	}

	s := g.Stats()
	fmt.Printf("\nrecovery: %d local requests -> %d repairs (mean %.1f ms to repair a loss)\n",
		s.LocalRequests, s.Repairs, s.MeanRecoveryMs)
	fmt.Printf("buffering: mean %.1f ms per message per member; %d long-term copies remain\n",
		s.MeanBufferingMs, s.LongTermEntries)
	fmt.Printf("network: %d packets / %d bytes total\n", g.TotalPacketsSent(), g.TotalBytesSent())
	// Output:
	// message 0:1    delivered to 50/50 members, still buffered at 5
	// message 0:2    delivered to 50/50 members, still buffered at 6
	// message 0:3    delivered to 50/50 members, still buffered at 5
	// message 0:4    delivered to 50/50 members, still buffered at 5
	// message 0:5    delivered to 50/50 members, still buffered at 5
	// message 0:6    delivered to 49/50 members, still buffered at 2
	// message 0:7    delivered to 50/50 members, still buffered at 3
	// message 0:8    delivered to 50/50 members, still buffered at 4
	// message 0:9    delivered to 50/50 members, still buffered at 5
	// message 0:10   delivered to 50/50 members, still buffered at 7
	//
	// recovery: 212 local requests -> 99 repairs (mean 15.2 ms to repair a loss)
	// buffering: mean 43.9 ms per message per member; 47 long-term copies remain
	// network: 1781 packets / 79514 bytes total
}

// Example_churn shows §3.2's leave protocol: a departing member transfers
// every long-term buffered message to randomly selected peers, so losses
// stay recoverable after all original bufferers are gone. On the same
// seed, bufferers that crash instead take the straggler's only copies
// with them (the paper's §5 limitation made concrete).
func Example_churn() {
	for _, graceful := range []bool{true, false} {
		mode := "graceful leave (with handoff)"
		if !graceful {
			mode = "crash (no handoff)"
		}
		fmt.Printf("=== %s ===\n", mode)
		churn(graceful)
		fmt.Println()
	}
	// Output:
	// === graceful leave (with handoff) ===
	// message 0:1 held long-term by members [5 12 20]; member 29 missed it
	// after departure: 3 members hold the message (handoffs sent: 3)
	// straggler recovered the message in 31.0 ms after 3 requests
	//
	// === crash (no handoff) ===
	// message 0:1 held long-term by members [5 12 20]; member 29 missed it
	// after departure: 3 members hold the message (handoffs sent: 0)
	// straggler NEVER recovered: all copies died with the crashed bufferers
}

func churn(graceful bool) {
	g, err := repro.NewGroup(repro.GroupConfig{
		Scenario: repro.Scenario{Regions: []int{30}},
		Seed:     11,
		// Keep long-term copies for the whole session.
		Tune: func(p *repro.Params) { p.LongTermTTL = 0 },
	})
	if err != nil {
		log.Fatal(err)
	}

	// The sender publishes one message that member 29 (our straggler)
	// never receives: everyone else gets it, goes idle, and only a few
	// long-term bufferers keep copies.
	straggler := repro.NodeID(29)
	id := repro.MessageID{Source: g.SenderID(), Seq: 1}
	bufferers := []repro.NodeID{5, 12, 20}
	for n := repro.NodeID(0); n < 29; n++ {
		if slices.Contains(bufferers, n) {
			g.Member(n).InjectLongTerm(id, []byte("session-state"))
		} else {
			g.Member(n).InjectDiscarded(id)
		}
	}
	fmt.Printf("message %v held long-term by members %v; member %d missed it\n", id, bufferers, straggler)

	// All bufferers depart at t=0.
	for _, b := range bufferers {
		if graceful {
			g.At(0, func() { g.Leave(b) })
		} else {
			g.At(0, func() { g.Crash(b) })
		}
	}
	// The straggler detects its loss at t=100ms and runs local recovery.
	g.At(100*time.Millisecond, func() { g.Member(straggler).StartRecovery(id) })
	g.Run(10 * time.Second)

	holders := 0
	for _, m := range g.Members() {
		if m.Buffer().Has(id) {
			holders++
		}
	}
	fmt.Printf("after departure: %d members hold the message (handoffs sent: %d)\n", holders, g.Stats().Handoffs)
	if m := g.Member(straggler); m.HasReceived(id) {
		fmt.Printf("straggler recovered the message in %.1f ms after %d requests\n",
			m.Metrics().RecoveryLatency.Mean(), m.Metrics().LocalReqSent.Value())
	} else {
		fmt.Printf("straggler NEVER recovered: all copies died with the crashed bufferers\n")
	}
}

// Example_stockTicker streams a high-rate feed (the classic
// reliable-multicast workload) to a 100-member region and compares what
// three buffering policies pay in memory for the same reliability: 200
// quotes at 5 ms intervals with 10% receiver loss. Under the paper's
// two-phase policy each member holds a quote only while requests still
// arrive (T = 40 ms of quiet), and then ~C/n of them keep long-term
// copies; the fixed-hold and buffer-all baselines pay far more.
func Example_stockTicker() {
	const (
		quotes = 200
		rate   = 5 * time.Millisecond
	)
	choices := []struct {
		name, policy string
	}{
		{"two-phase (paper)", "two-phase"},
		{"fixed-hold 1s", "fixed"},
		{"buffer-all", "all"},
	}

	fmt.Printf("%-20s %10s %14s %12s %14s\n",
		"policy", "delivered", "buf(msg·s)", "peak/member", "mean-hold(ms)")
	for _, choice := range choices {
		g, err := repro.NewGroup(repro.GroupConfig{
			Scenario: repro.Scenario{
				Regions: []int{100}, Loss: 0.10,
				Policy: choice.policy, FixedHold: time.Second,
			},
			Seed: 99,
			Tune: func(p *repro.Params) { p.LongTermTTL = time.Second },
		})
		if err != nil {
			log.Fatal(err)
		}
		g.StartSessions()
		for i := 0; i < quotes; i++ {
			g.At(time.Duration(i)*rate, func() {
				g.Publish([]byte(fmt.Sprintf("ACME %d.%02d", 100+i/100, i%100)))
			})
		}
		g.Run(4 * time.Second)

		s := g.Stats()
		peak := 0
		for _, m := range g.Members() {
			peak = max(peak, m.Buffer().PeakLen())
		}
		deliveryPct := 100 * float64(s.Delivered) / float64(quotes*g.NumMembers())
		fmt.Printf("%-20s %9.2f%% %14.1f %12d %14.1f\n",
			choice.name, deliveryPct, s.BufferIntegral, peak, s.MeanBufferingMs)
	}
	fmt.Println("\nSame feed, same loss, same delivery — two-phase buffers a fraction of the baselines.")
	// Output:
	// policy                delivered     buf(msg·s)  peak/member  mean-hold(ms)
	// two-phase (paper)       100.00%         2029.3           28          101.5
	// fixed-hold 1s           100.00%        20000.0          200         1000.0
	// buffer-all              100.00%        69918.6          200            0.0
	//
	// Same feed, same loss, same delivery — two-phase buffers a fraction of the baselines.
}

// Example_wanDissemination is the workload the paper's introduction
// motivates: a sender pushing updates over a three-region WAN chain
// (region 0, the sender's LAN, parents region 1, which parents region 2)
// where an entire downstream region misses the initial multicast. With
// region 2's feed blacked out, local recovery alone cannot help: a
// randomly elected member of region 2 sends a remote request to the
// parent region (expected λ = 1 per round), pulls the repair across the
// WAN once, and re-multicasts it regionally (§2.2).
func Example_wanDissemination() {
	g, err := repro.NewGroup(repro.GroupConfig{
		// Bursty WAN loss on the initial multicast.
		Scenario: repro.Scenario{Regions: []int{20, 20, 20}, Loss: 0.15, Burst: true},
		Seed:     7,
		Tune:     func(p *repro.Params) { p.ParentRTT = 110 * time.Millisecond }, // WAN round-trip estimate
		Blackout: []int{2},
	})
	if err != nil {
		log.Fatal(err)
	}
	g.StartSessions()

	var ids []repro.MessageID
	for i := 0; i < 15; i++ {
		g.At(time.Duration(i)*30*time.Millisecond, func() {
			ids = append(ids, g.Publish([]byte(fmt.Sprintf("wan-update-%02d", i))))
		})
	}
	g.Run(5 * time.Second)

	fmt.Printf("%d members in %d regions; %d messages published\n\n",
		g.NumMembers(), g.NumRegions(), len(ids))

	complete := 0
	for _, id := range ids {
		if g.CountReceived(id) == g.NumMembers() {
			complete++
		}
	}
	fmt.Printf("fully delivered: %d/%d messages\n", complete, len(ids))

	s := g.Stats()
	fmt.Printf("local requests:      %d\n", s.LocalRequests)
	fmt.Printf("remote requests:     %d   (cross-WAN pulls; λ=1 keeps this near one per regional loss)\n", s.RemoteRequests)
	fmt.Printf("regional multicasts: %d   (one WAN copy fans out to the whole losing region)\n", s.RegionalMulticasts)
	fmt.Printf("repairs:             %d\n", s.Repairs)
	fmt.Printf("mean recovery:       %.1f ms\n", s.MeanRecoveryMs)

	// Per-member traffic at the sender vs a leaf shows the load staying
	// distributed rather than concentrating anywhere.
	sender := g.Member(g.SenderID()).Metrics()
	leaf := g.Member(repro.NodeID(g.NumMembers() - 1)).Metrics()
	fmt.Printf("\nsender fielded %d requests; a leaf member fielded %d — recovery load is spread, no repair server\n",
		sender.LocalReqRecv.Value()+sender.RemoteReqRecv.Value(),
		leaf.LocalReqRecv.Value()+leaf.RemoteReqRecv.Value())
	// Output:
	// 60 members in 3 regions; 15 messages published
	//
	// fully delivered: 15/15 messages
	// local requests:      5573
	// remote requests:     31   (cross-WAN pulls; λ=1 keeps this near one per regional loss)
	// regional multicasts: 17   (one WAN copy fans out to the whole losing region)
	// repairs:             212
	// mean recovery:       161.0 ms
	//
	// sender fielded 4 requests; a leaf member fielded 279 — recovery load is spread, no repair server
}
