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

// reset rewinds the arena to reuse every slab, zeroing the consumed
// frames so the next run starts from the same all-zero state a fresh
// slab provides. Callers must have dropped every Frame pointer from the
// previous run first — Engine.Reset documents that the prior Result is
// invalidated.
func (a *frameArena) reset() {
	for i := 0; i < a.slab; i++ {
		clear(a.slabs[i])
	}
	if a.slab < len(a.slabs) {
		clear(a.slabs[a.slab][:a.used])
	}
	a.slab, a.used = 0, 0
}
