package core

// Len returns the number of buffered entries (both phases).
func (b *Buffer) Len() int { return b.idx.size() }

// Bytes returns the payload bytes currently held.
func (b *Buffer) Bytes() int { return b.bytes }

// hooks returns b's callbacks, making an empty set if it has none, so a
// test can set OnEvict or OnPromote after construction.
func (b *Buffer) hooks() *callbacks {
	c, ok := b.obs.(*callbacks)
	if !ok {
		c = new(callbacks)
		b.obs = c
	}
	return c
}
