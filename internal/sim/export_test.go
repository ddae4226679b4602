package sim

// Pending returns the number of scheduled events not yet executed.
func (s *Sim) Pending() int { return s.queue.Len() }

// Pending returns the number of scheduled events not yet executed.
func (e *Sharded) Pending() int {
	n := e.global.Pending()
	for _, ln := range e.lanes {
		n += ln.loop.Pending()
	}
	return n
}
