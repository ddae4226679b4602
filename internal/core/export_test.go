package core

// Len returns the number of buffered entries (both phases).
func (b *Buffer) Len() int { return b.idx.size() }

// Bytes returns the payload bytes currently held.
func (b *Buffer) Bytes() int { return b.bytes }
