package mac

// frameArena hands out Frames from slab-allocated blocks, replacing one
// heap allocation per packet with one per arenaBlock packets. Frames
// live as long as the Result that references them. The slabs are
// retained, so an engine reused across replications (Engine.Reset)
// recycles them instead of allocating a fresh set per run — the
// dominant per-replication allocation before engine reuse existed.
type frameArena struct {
	slabs [][]Frame
	slab  int // slab currently being consumed
	used  int // frames consumed from slabs[slab]
}

const arenaBlock = 256

func (a *frameArena) next() *Frame {
	if a.slab == len(a.slabs) {
		a.slabs = append(a.slabs, make([]Frame, arenaBlock))
	}
	s := a.slabs[a.slab]
	f := &s[a.used]
	a.used++
	if a.used == len(s) {
		a.slab++
		a.used = 0
	}
	return f
}

// reset rewinds the arena to reuse every slab. The frames keep the
// previous run's values: the engine writes each field of a frame it
// takes before reading it (see Engine.pumpStation). Callers must have
// dropped every Frame pointer from the previous run first —
// Engine.Reset documents that the prior Result is invalidated.
func (a *frameArena) reset() {
	a.slab, a.used = 0, 0
}
