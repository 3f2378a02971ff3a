package ooc

// Claimed reports how many block indices the decoders have claimed in
// the current product.
func (e *Engine) Claimed() int64 { return e.next.Load() }
