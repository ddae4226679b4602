package exp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// FitnessWeights weight the four objectives of the sweep fitness score:
// delivery is a benefit (its weight adds), the other three are costs
// (their weights subtract after set-relative normalization). Weights are
// non-negative; a zero weight removes the objective.
type FitnessWeights struct {
	Delivery      float64 `json:"delivery"`
	ByteSeconds   float64 `json:"byte_seconds"`
	Unrecoverable float64 `json:"unrecoverable"`
	RecoveryMs    float64 `json:"recovery_ms"`
}

// DefaultFitnessWeights returns the standing weighting: delivery dominates
// (it is the protocol's reason to exist), unrecoverables cost half a
// delivery point at the set maximum, buffer byte-seconds and recovery
// latency a quarter each.
func DefaultFitnessWeights() FitnessWeights {
	return FitnessWeights{Delivery: 1, ByteSeconds: 0.25, Unrecoverable: 0.5, RecoveryMs: 0.25}
}

// ParseFitnessWeights parses a "key=val,..." weight spec with keys
// delivery, bytesec, unrec and recovery (all optional; omitted keys keep
// their default weight). The empty string returns the defaults.
func ParseFitnessWeights(s string) (FitnessWeights, error) {
	w := DefaultFitnessWeights()
	if strings.TrimSpace(s) == "" {
		return w, nil
	}
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return FitnessWeights{}, fmt.Errorf("exp: bad fitness weight %q (want key=val)", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return FitnessWeights{}, fmt.Errorf("exp: fitness weight %s=%q: want a non-negative number", key, val)
		}
		switch key {
		case "delivery":
			w.Delivery = f
		case "bytesec":
			w.ByteSeconds = f
		case "unrec":
			w.Unrecoverable = f
		case "recovery":
			w.RecoveryMs = f
		default:
			return FitnessWeights{}, fmt.Errorf("exp: unknown fitness weight %q (known: delivery, bytesec, unrec, recovery)", key)
		}
	}
	return w, nil
}

// FitnessInput is one scored candidate's raw objective values.
type FitnessInput struct {
	Name          string
	Delivery      float64
	ByteSeconds   float64
	Unrecoverable float64
	RecoveryMs    float64
}

// FitnessRow is one candidate's score next to the raw values it came from.
type FitnessRow struct {
	Name          string  `json:"name"`
	Score         float64 `json:"score"`
	Delivery      float64 `json:"delivery"`
	ByteSeconds   float64 `json:"byte_seconds"`
	Unrecoverable float64 `json:"unrecoverable"`
	RecoveryMs    float64 `json:"recovery_ms"`
}

// Fitness scores the candidates against each other:
//
//	score = w.Delivery·delivery − w.ByteSeconds·cost(byteSeconds)
//	        − w.Unrecoverable·cost(unrecoverable) − w.RecoveryMs·cost(recoveryMs)
//
// where cost(x) = x / max(x over the compared set), or 0 when the set
// maximum is 0 (no candidate pays the cost). Delivery is used raw — it is
// already a ratio in [0, 1]. The normalization makes the score
// set-relative by design: it ranks candidates within one comparison
// (policies over the same cells), not across reports. Rows return ranked,
// best score first, ties broken by name, so output order is deterministic.
func Fitness(rows []FitnessInput, w FitnessWeights) []FitnessRow {
	var maxBytes, maxUnrec, maxRec float64
	for _, r := range rows {
		maxBytes = max(maxBytes, r.ByteSeconds)
		maxUnrec = max(maxUnrec, r.Unrecoverable)
		maxRec = max(maxRec, r.RecoveryMs)
	}
	cost := func(v, maxV float64) float64 {
		if maxV <= 0 {
			return 0
		}
		return v / maxV
	}
	out := make([]FitnessRow, len(rows))
	for i, r := range rows {
		out[i] = FitnessRow{
			Name:          r.Name,
			Delivery:      r.Delivery,
			ByteSeconds:   r.ByteSeconds,
			Unrecoverable: r.Unrecoverable,
			RecoveryMs:    r.RecoveryMs,
			Score: w.Delivery*r.Delivery -
				w.ByteSeconds*cost(r.ByteSeconds, maxBytes) -
				w.Unrecoverable*cost(r.Unrecoverable, maxUnrec) -
				w.RecoveryMs*cost(r.RecoveryMs, maxRec),
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Name < out[j].Name
	})
	return out
}
