package core

// Len returns the number of buffered entries (both phases).
func (b *Buffer) Len() int { return b.idx.size() }

// Bytes returns the payload bytes currently held.
func (b *Buffer) Bytes() int { return b.bytes }

// callbacks is an Observer made of two optional funcs, for tests that
// observe a buffer through closures.
type callbacks struct {
	onEvict   func(e *Entry, reason EvictReason)
	onPromote func(e *Entry)
}

func (c *callbacks) Evicted(e *Entry, reason EvictReason) {
	if c.onEvict != nil {
		c.onEvict(e, reason)
	}
}

func (c *callbacks) Promoted(e *Entry) {
	if c.onPromote != nil {
		c.onPromote(e)
	}
}

// hooks returns b's callbacks, making an empty set if it has none, so a
// test can set onEvict or onPromote after construction.
func (b *Buffer) hooks() *callbacks {
	c, ok := b.obs.(*callbacks)
	if !ok {
		c = new(callbacks)
		b.obs = c
	}
	return c
}
