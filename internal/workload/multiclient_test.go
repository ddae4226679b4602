package workload

import (
	"testing"
	"testing/quick"
	"time"
)

// specForProperty builds a small but varied spec from raw fuzz-ish inputs.
func specForProperty(kindRaw, clientsRaw, msgsRaw uint8, zipfRaw, winRaw uint8) *Spec {
	s := &Spec{
		Clients: int(clientsRaw%6) + 1,
		Msgs:    int(msgsRaw%40) + 1,
		Arrival: []string{ArrivalConstant, ArrivalPoisson, ArrivalBurst}[kindRaw%3],
		Gap:     10 * time.Millisecond,
		ZipfS:   float64(zipfRaw%3) * 0.7,
	}
	if s.Arrival == ArrivalBurst {
		s.BurstLen = int(kindRaw%4) + 1
		s.BurstGap = time.Millisecond
	}
	if winRaw%2 == 1 {
		s.Windows = []Window{
			{From: 0, To: 50 * time.Millisecond, Factor: 4},
			{From: 50 * time.Millisecond, To: 200 * time.Millisecond, Factor: 0.5},
		}
	}
	return s
}

// Property: the merged multi-client timeline has exactly Msgs events, is
// valid (monotone, positive sizes), spans to its maximum instant, and is
// byte-deterministic under a fixed seed.
func TestTimelineMergeProperty(t *testing.T) {
	prop := func(kindRaw, clientsRaw, msgsRaw, zipfRaw, winRaw uint8, seed uint16) bool {
		s := specForProperty(kindRaw, clientsRaw, msgsRaw, zipfRaw, winRaw)
		tl, err := s.Timeline(uint64(seed))
		if err != nil {
			return false
		}
		again, err := s.Timeline(uint64(seed))
		if err != nil || len(tl) != len(again) {
			return false
		}
		if len(tl) != s.Msgs || !tl.Valid() {
			return false
		}
		max := time.Duration(0)
		for i := range tl {
			if tl[i] != again[i] {
				return false
			}
			if tl[i].Client >= s.Clients {
				return false
			}
			if tl[i].At > max {
				max = tl[i].At
			}
		}
		return tl.Span() == max && tl.Clients() <= s.Clients
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfShares(t *testing.T) {
	counts := zipfShares(100, 4, 1)
	sum := 0
	for i, c := range counts {
		sum += c
		if i > 0 && c > counts[i-1] {
			t.Fatalf("zipf counts not non-increasing: %v", counts)
		}
	}
	if sum != 100 {
		t.Fatalf("zipf counts sum %d, want 100", sum)
	}
	if counts[0] <= counts[3] {
		t.Fatalf("zipf skew missing: %v", counts)
	}
	even := zipfShares(12, 4, 0)
	for _, c := range even {
		if c != 3 {
			t.Fatalf("even split %v", even)
		}
	}
	// Fewer messages than clients: trailing clients get zero, total holds.
	sparse := zipfShares(2, 5, 1.1)
	sum = 0
	for _, c := range sparse {
		sum += c
	}
	if sum != 2 {
		t.Fatalf("sparse split %v sums to %d", sparse, sum)
	}
}

// Per-client streams are label-derived (counter-hash), so one client's
// arrivals never depend on how much randomness other clients consumed:
// with an even split, growing the client set must not change client 0's
// publish instants.
func TestClientStreamsIndependent(t *testing.T) {
	base := &Spec{Clients: 2, Msgs: 40, Arrival: ArrivalPoisson, Gap: 5 * time.Millisecond}
	wide := &Spec{Clients: 4, Msgs: 80, Arrival: ArrivalPoisson, Gap: 5 * time.Millisecond}
	a, err := base.Timeline(11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := wide.Timeline(11)
	if err != nil {
		t.Fatal(err)
	}
	at := func(tl Timeline, client int) []time.Duration {
		var out []time.Duration
		for _, e := range tl {
			if e.Client == client {
				out = append(out, e.At)
			}
		}
		return out
	}
	ca, cb := at(a, 0), at(b, 0)
	if len(ca) != 20 || len(cb) != 20 {
		t.Fatalf("client 0 got %d and %d events, want 20 each", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("client 0 schedule shifted when client count grew: %v vs %v", ca[i], cb[i])
		}
	}
}

// Rate windows modulate arrival density: a 4x window must pack publishes
// tighter than the surrounding base-rate span.
func TestRateWindowsModulateDensity(t *testing.T) {
	s := &Spec{
		Clients: 1, Msgs: 200, Arrival: ArrivalConstant, Gap: 10 * time.Millisecond,
		Windows: []Window{{From: 0, To: 250 * time.Millisecond, Factor: 4}},
	}
	tl, err := s.Timeline(1)
	if err != nil {
		t.Fatal(err)
	}
	inWindow := 0
	for _, e := range tl {
		if e.At < 250*time.Millisecond {
			inWindow++
		}
	}
	// 4x rate: 2.5ms gaps inside the window → 100 events in 250ms vs 25
	// at the base rate.
	if inWindow != 100 {
		t.Fatalf("%d events inside the 4x window, want 100", inWindow)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Clients: 0, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond},
		{Clients: 1, Msgs: 0, Arrival: ArrivalConstant, Gap: time.Millisecond},
		{Clients: 1, Msgs: 1, Arrival: "weird", Gap: time.Millisecond},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: 0},
		{Clients: 1, Msgs: 1, Arrival: ArrivalBurst, Gap: time.Millisecond},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond, ZipfS: -1},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond,
			Windows: []Window{{From: 5, To: 5, Factor: 1}}},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond,
			Windows: []Window{{From: 0, To: 5, Factor: 0}}},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond, SizeModel: "zipf"},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond, LateJoinFrac: 2},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond, LateJoinFrac: 0.5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	good := Spec{Clients: 3, Msgs: 10, Arrival: ArrivalPoisson, Gap: time.Millisecond,
		ZipfS: 1.1, SizeModel: SizeLognormal, SizeMean: 512,
		LateJoinFrac: 0.25, LateJoinAt: time.Second, LateJoinSpread: time.Second}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

func TestSpecToken(t *testing.T) {
	s := &Spec{Clients: 8, Msgs: 64, Arrival: ArrivalPoisson, Gap: time.Millisecond}
	if got := s.Token(); got != "poisson:c8:m64" {
		t.Fatalf("token %q", got)
	}
	s = &Spec{Clients: 8, Msgs: 64, Arrival: ArrivalPoisson, Gap: time.Millisecond,
		ZipfS: 1.1, SizeModel: SizeLognormal, SizeMean: 512,
		Windows: []Window{{From: 0, To: 1, Factor: 2}}}
	if got := s.Token(); got != "poisson:c8:m64:z1.1:w1:lognormal512" {
		t.Fatalf("token %q", got)
	}
	s = &Spec{Clients: 1, Msgs: 40, Arrival: ArrivalConstant, Gap: time.Millisecond,
		LateJoinFrac: 0.25, LateJoinAt: 500 * time.Millisecond}
	if got := s.Token(); got != "constant:c1:m40:vod0.25@500ms" {
		t.Fatalf("token %q", got)
	}
}

// The README's -workload spec, and the bursty and vod presets spelled out in
// the same grammar: between them they use every key.
var readmeSpecs = []string{
	"clients=4,msgs=32,arrival=poisson,gap=50ms,zipf=1.1,size-model=lognormal,size-mean=512",
	"clients=4,msgs=48,arrival=burst,gap=200ms,burst-len=4,burst-gap=5ms,window=0s-1s:4,window=2s-4s:0.5",
	"clients=1,msgs=60,arrival=constant,gap=20ms,size-model=fixed,size-mean=1024,late-frac=0.25,late-at=1500ms,late-spread=1s",
}

// TestParseSpec covers the key=val grammar (windows included) and its
// error paths.
func TestParseSpec(t *testing.T) {
	for _, s := range readmeSpecs {
		if _, err := ParseSpec(s); err != nil {
			t.Fatalf("spec %q rejected: %v", s, err)
		}
	}
	spec, err := ParseSpec(readmeSpecs[1] + ",size-model=lognormal,size-mean=512,zipf=1.1")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Clients != 4 || spec.Msgs != 48 || spec.BurstLen != 4 ||
		spec.Gap != 200*time.Millisecond || len(spec.Windows) != 2 ||
		spec.Windows[1].Factor != 0.5 || spec.SizeMean != 512 || spec.ZipfS != 1.1 {
		t.Fatalf("parsed spec = %+v", spec)
	}
	for _, bad := range []string{
		"mc",                            // not key=val (presets are exp's)
		"clients=x",                     // bad int
		"clients=4",                     // msgs missing -> Validate fails
		"clients=4,msgs=8,arrival=warp", // unknown arrival
		"clients=4,msgs=8,window=1s:4",  // malformed window
		"clients=4,msgs=8,frobnicate=1", // unknown key
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// FuzzParseSpec pins the parser's two safety properties: arbitrary text
// never panics, and an accepted spec is one Validate accepts — nothing
// reaches the kernel that the type's own check would refuse.
func FuzzParseSpec(f *testing.F) {
	for _, s := range readmeSpecs {
		f.Add(s)
	}
	f.Add("")
	f.Add("clients=1,msgs=1,arrival=constant,gap=1ns,window=-1s-1s:0")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseSpec accepted %q, which Validate rejects: %v", s, err)
		}
	})
}
