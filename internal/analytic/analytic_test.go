package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProbNoRequestMatchesPaper(t *testing.T) {
	// As n -> infinity the probability approaches e^-p (§3.1).
	for _, p := range []float64{0.1, 0.5, 0.9} {
		exact := ProbNoRequest(100000, p)
		limit := math.Exp(-p)
		if math.Abs(exact-limit) > 1e-3 {
			t.Errorf("p=%v: exact %v vs limit %v", p, exact, limit)
		}
	}
}

func TestProbNoRequestEdges(t *testing.T) {
	if got := ProbNoRequest(1, 0.5); got != 1 {
		t.Fatalf("n=1: %v", got)
	}
	if got := ProbNoRequest(100, 0); got != 1 {
		t.Fatalf("p=0: %v", got)
	}
	if got := ProbNoRequest(100, 2); got != ProbNoRequest(100, 1) {
		t.Fatalf("p clamp failed: %v", got)
	}
}

func TestProbNoRequestDecreasesInP(t *testing.T) {
	prev := 2.0
	for _, p := range []float64{0.1, 0.2, 0.4, 0.8, 1.0} {
		v := ProbNoRequest(100, p)
		if v >= prev {
			t.Fatalf("ProbNoRequest not decreasing at p=%v: %v >= %v", p, v, prev)
		}
		prev = v
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.5, 5, 6, 8, 30} {
		var sum float64
		for k := 0; k < 200; k++ {
			sum += PoissonPMF(lambda, k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("lambda=%v: pmf sums to %v", lambda, sum)
		}
	}
}

func TestPoissonPMFKnownValues(t *testing.T) {
	// P[X=0] = e^-lambda; Figure 4's C=6 point: e^-6 = 0.00248 (0.25%).
	if got, want := PoissonPMF(6, 0), math.Exp(-6); math.Abs(got-want) > 1e-12 {
		t.Fatalf("PoissonPMF(6,0) = %v, want %v", got, want)
	}
	// Mode of Poisson(6) is at k=5 and k=6 with equal mass.
	if math.Abs(PoissonPMF(6, 5)-PoissonPMF(6, 6)) > 1e-12 {
		t.Fatal("Poisson(6) mode masses differ")
	}
	if PoissonPMF(5, -1) != 0 {
		t.Fatal("negative k has mass")
	}
	if PoissonPMF(0, 0) != 1 || PoissonPMF(0, 3) != 0 {
		t.Fatal("lambda=0 pmf wrong")
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{{10, 0.3}, {100, 0.06}, {1000, 0.01}}
	for _, tc := range cases {
		var sum float64
		for k := 0; k <= tc.n; k++ {
			sum += BinomialPMF(tc.n, k, tc.p)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("Binomial(%d,%v) sums to %v", tc.n, tc.p, sum)
		}
	}
}

func TestBinomialApproachesPoisson(t *testing.T) {
	// Paper §3.2: Binomial(n, C/n) -> Poisson(C) as n -> infinity.
	const c = 6.0
	const n = 5000
	for k := 0; k <= 15; k++ {
		b := BinomialPMF(n, k, c/n)
		p := PoissonPMF(c, k)
		if math.Abs(b-p) > 2e-3 {
			t.Errorf("k=%d: binomial %v vs poisson %v", k, b, p)
		}
	}
}

func TestBinomialPMFEdges(t *testing.T) {
	if BinomialPMF(5, 0, 0) != 1 || BinomialPMF(5, 1, 0) != 0 {
		t.Fatal("p=0 edge wrong")
	}
	if BinomialPMF(5, 5, 1) != 1 || BinomialPMF(5, 4, 1) != 0 {
		t.Fatal("p=1 edge wrong")
	}
	if BinomialPMF(5, 6, 0.5) != 0 || BinomialPMF(5, -1, 0.5) != 0 {
		t.Fatal("out-of-range k has mass")
	}
}

func TestProbNoLongTermBufferer(t *testing.T) {
	// Paper: "When C = 6 ... the probability is only 0.25%."
	if got := ProbNoLongTermBufferer(6); math.Abs(got-0.0025) > 2e-4 {
		t.Fatalf("P(no bufferer | C=6) = %v, want ~0.25%%", got)
	}
	// Decreasing in C.
	prev := 2.0
	for c := 1.0; c <= 6; c++ {
		v := ProbNoLongTermBufferer(c)
		if v >= prev {
			t.Fatalf("not decreasing at C=%v", c)
		}
		prev = v
	}
	if ProbNoLongTermBufferer(-1) != 1 {
		t.Fatal("negative C should return 1")
	}
}

func TestExactVsLimitNoBufferer(t *testing.T) {
	for _, n := range []int{100, 1000, 10000} {
		exact := ProbNoLongTermBuffererExact(6, n)
		limit := ProbNoLongTermBufferer(6)
		tol := 1e-3
		if n >= 1000 {
			tol = 1e-4
		}
		if math.Abs(exact-limit) > tol {
			t.Errorf("n=%d: exact %v vs limit %v", n, exact, limit)
		}
	}
	if ProbNoLongTermBuffererExact(200, 100) != 0 {
		t.Fatal("C>n should give probability 0")
	}
}

func TestElectionProbability(t *testing.T) {
	if got := ElectionProbability(6, 100); got != 0.06 {
		t.Fatalf("P = %v", got)
	}
	if got := ElectionProbability(6, 3); got != 1 {
		t.Fatalf("clamp failed: %v", got)
	}
	if ElectionProbability(6, 0) != 0 || ElectionProbability(-1, 100) != 0 {
		t.Fatal("degenerate inputs nonzero")
	}
}

func TestExpectedRemoteRequestProbability(t *testing.T) {
	if got := ExpectedRemoteRequestProbability(1, 100); got != 0.01 {
		t.Fatalf("lambda/n = %v", got)
	}
	if got := ExpectedRemoteRequestProbability(5, 2); got != 1 {
		t.Fatalf("clamp failed: %v", got)
	}
}

func TestPMFNonNegativeProperty(t *testing.T) {
	prop := func(lk uint16, kk uint8) bool {
		lambda := float64(lk%400) / 10
		k := int(kk % 64)
		p := PoissonPMF(lambda, k)
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
