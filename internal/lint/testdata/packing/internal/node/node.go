// Package node declares structs in both shapes the packing rule sorts: a
// field order that pads (each bool takes a word beside the int64s), and
// the same fields ordered by alignment, which pads only at the end.
package node

import "time"

// Padded is 40 bytes; ordered by alignment it would be 24.
type Padded struct {
	up    bool
	seq   uint64
	down  bool
	since time.Duration
	src   int32
}

// Packed holds Padded's fields ordered by alignment: 24 bytes.
type Packed struct {
	seq   uint64
	since time.Duration
	src   int32
	up    bool
	down  bool
}
