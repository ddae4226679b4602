// Package runner is a driver, outside the protocol set: the control. The
// same shapes the analyzer flags in core pass here.
package runner

import "timerownerfix/clock"

type driver struct {
	timer clock.Handle
	fire  func()
}

func (d *driver) expire() {}

func (d *driver) bind() {
	d.fire = d.expire
	d.timer.Arm(nil, 1, clock.Func(d.expire))
}
