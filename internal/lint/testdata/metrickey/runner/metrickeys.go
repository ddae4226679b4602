// Package runner models the metric-key registry just closely enough for
// the metrickey analyzer: MK constants in gated const blocks, and
// protocol-scoped emitter files. This file is the one place allowed to
// spell registered keys as string literals.
package runner

// Keys both protocols emit.
//
//metrics:gate both
const MKDeliveryRatio = "delivery_ratio"

// An RMTP-only key.
//
//metrics:gate rmtp
const (
	MKNakSent = "nak_sent"
)

// An RRMP-only key.
//
//metrics:gate rrmp
const (
	MKSearches = "searches"
)

// MKOrphan deliberately sits in a block with no gate.
const (
	MKOrphan = "orphan_metric" // want "metric key constant MKOrphan .* is outside a //metrics:gate block"
)
