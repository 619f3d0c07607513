package pipeline

// Occupancy scan for microarchitectural telemetry (internal/microtel).
//
// Occupancies reports, for every monitored structure, how many of its
// entries/units currently hold live content. Storage structures count
// occupied entries; logic structures count units with at least one
// operation in flight (the same notion `activeUnits` accumulates for the
// utilization baseline); TLBs count resident translations. Everything
// read here is either an incrementally-maintained counter or an O(1)
// length, so one call is a handful of loads — cheap enough to sample at
// every estimator conclusion boundary without touching the per-cycle
// hot path.
func (p *Pipeline) Occupancies(counts *[NumStructures]int) {
	counts[StructIQ] = p.iqCount()
	counts[StructReg] = p.cfg.IntRegs - len(p.intRF.free)
	counts[StructFPReg] = p.cfg.FPRegs - len(p.fpRF.free)
	counts[StructFXU] = int(p.activeUnits[FUInt])
	counts[StructFPU] = int(p.activeUnits[FUFP])
	counts[StructLSU] = int(p.activeUnits[FULS])
	counts[StructDTLB] = p.hier.DTLB.ValidEntries()
	counts[StructITLB] = p.hier.ITLB.ValidEntries()
}
