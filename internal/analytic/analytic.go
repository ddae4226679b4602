// Package analytic implements the closed-form probability results the paper
// derives in §3.1 and §3.2. The figure harness plots these curves next to
// simulation measurements (Figures 3 and 4 of the paper are purely
// analytic; our benches additionally validate them against Monte Carlo
// election trials).
package analytic

import "math"

// ProbNoRequest returns the probability that a member holding a message
// receives no local retransmission request when a fraction p of an n-member
// region missed the message (paper §3.1):
//
//	(1 - 1/(n-1))^(n·p)
//
// As n grows this approaches exp(-p). The result is clamped to [0, 1];
// n < 2 returns 1 (no possible requester).
func ProbNoRequest(n int, p float64) float64 {
	if n < 2 {
		return 1
	}
	if p <= 0 {
		return 1
	}
	if p > 1 {
		p = 1
	}
	v := math.Pow(1-1/float64(n-1), float64(n)*p)
	return clamp01(v)
}

// PoissonPMF returns P[X = k] for X ~ Poisson(lambda): the paper's model
// for the number of long-term bufferers of an idle message in a large
// region with expected bufferer count lambda = C (§3.2, Figure 3).
func PoissonPMF(lambda float64, k int) float64 {
	if k < 0 || lambda < 0 {
		return 0
	}
	if lambda == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	// Compute in log space to stay finite for large k.
	logp := -lambda + float64(k)*math.Log(lambda) - logFactorial(k)
	return math.Exp(logp)
}

// BinomialPMF returns P[X = k] for X ~ Binomial(n, p): the exact
// finite-region distribution of the number of long-term bufferers when each
// of n members elects itself with probability p (§3.2).
func BinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n || n < 0 {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	logp := logChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
	return math.Exp(logp)
}

// ProbNoLongTermBufferer returns the probability that no member of a large
// region elects itself a long-term bufferer for an idle message, e^(-C)
// (paper §3.2, Figure 4; 0.25% at C = 6).
func ProbNoLongTermBufferer(c float64) float64 {
	if c < 0 {
		return 1
	}
	return math.Exp(-c)
}

// ProbNoLongTermBuffererExact returns the exact finite-n probability
// (1 - C/n)^n that no member of an n-member region elects itself.
func ProbNoLongTermBuffererExact(c float64, n int) float64 {
	if n <= 0 || c <= 0 {
		return 1
	}
	p := c / float64(n)
	if p >= 1 {
		return 0
	}
	return math.Pow(1-p, float64(n))
}

// ElectionProbability returns the per-member long-term election probability
// P = C/n for a region of n members, clamped to [0, 1] (paper §3.2).
func ElectionProbability(c float64, n int) float64 {
	if n <= 0 || c <= 0 {
		return 0
	}
	return clamp01(c / float64(n))
}

// ExpectedRemoteRequestProbability returns the per-member probability
// lambda/n with which a member that detected a loss sends a remote request,
// so a region-wide loss generates lambda expected requests per round
// (paper §2.2).
func ExpectedRemoteRequestProbability(lambda float64, n int) float64 {
	if n <= 0 || lambda <= 0 {
		return 0
	}
	return clamp01(lambda / float64(n))
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}

// logFactorial returns ln(k!) via the log-gamma function.
func logFactorial(k int) float64 {
	lg, _ := math.Lgamma(float64(k) + 1)
	return lg
}

// logChoose returns ln(n choose k).
func logChoose(n, k int) float64 {
	return logFactorial(n) - logFactorial(k) - logFactorial(n-k)
}
