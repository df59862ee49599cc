package telemetrysafe // want `protected field Router.gone names no field` `allowed file gone.go is no file`

// deposit mixes sanctioned helper calls with the direct bit twiddling the
// analyzer exists to catch.
func (r *Router) deposit(idx uint) {
	r.occ |= 1 << idx // want `direct mutation of scheduler state Router\.occ outside \[sched\.go gone\.go\]`
	r.inFlits++       // want `direct mutation of scheduler state Router\.inFlits`
	r.sched.flitsIn++ // want `direct mutation of scheduler state scheduler\.flitsIn`
	p := &r.occ       // want `taking the address of scheduler state Router\.occ`
	_ = p
	r.markOccupied(idx) // permitted: the sched.go edge helper
	r.gainIn(1)         // permitted
}

// evade pokes the activity bitmap through the nested selector chain; the
// analyzer unwraps the indexing and still sees the protected field.
func (r *Router) evade() {
	r.sched.actIn.w[0] |= 1 // want `direct mutation of scheduler state activeSet\.w`
}
