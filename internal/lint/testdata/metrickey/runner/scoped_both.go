// This file models the protocol-neutral scenario kernel; scope `both`
// pins it to keys gated both, so no protocol-only key can leak into it.
//
//metrics:scope both
package runner

// EmitShared may mention both-gated keys only.
func EmitShared(out map[string]float64) {
	out[MKDeliveryRatio] = 1
	out[MKSearches] = 1 // want "metric key MKSearches is gated to protocol \"rrmp\""
	out[MKNakSent] = 1  // want "metric key MKNakSent is gated to protocol \"rmtp\""
}
