// Package repro is the fixture module's root, outside the audited
// internal/ tree: it calls into shape and formats a Box.
package repro

import (
	"fmt"

	"repro/internal/shape"
)

func Main() string { return fmt.Sprint(shape.Box{}) + shape.Describe(shape.Box{}) }
