package main

// rmtp layer: the repair-server baseline has no hook surface, so its one
// probe is the same 100-member 5%-loss trial probe_rrmp.go times, under
// Protocol "rmtp" — what a sweep600 rmtp cell costs end to end.
func probeRMTP(m map[string]float64) { m["rmtp.trial_s_n100"] = trialN100("rmtp") }
