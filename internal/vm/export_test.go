package vm

import (
	"fmt"

	"repro/internal/ir"
)

// fusePatternNames names every fused-pair pattern, indexed by fuseOp.
var fusePatternNames = [...]string{
	fAddAdd: "AddAdd", fAddSub: "AddSub", fAddLt: "AddLt",
	fMulAdd: "MulAdd", fMulSub: "MulSub", fMulMul: "MulMul",
	fSubAdd: "SubAdd", fSubMul: "SubMul",
	fAddAddF: "AddAddF", fMulAddF: "MulAddF", fMulMulF: "MulMulF",
	fAddLoad: "AddLoad", fLoadSub: "LoadSub", fLoadMul: "LoadMul",
	fCmpBrI: "CmpBrI", fAddJmp: "AddJmp", fJmpPhi: "JmpPhi",
	fCmpCheckJmp: "CmpCheckJmp",
}

// FusePatterns lists the name of every fused-pair pattern in table order.
func FusePatterns() []string { return fusePatternNames[fNone+1:] }

// FusedHeads maps each instruction that heads a fused pair in m's lowered
// module to its pattern's name.
func FusedHeads(m *Machine) map[*ir.Instr]string {
	heads := map[*ir.Instr]string{}
	for _, ef := range m.eng.funcs {
		for pc := range ef.code {
			f := ef.code[pc].fop
			if f == fNone {
				continue
			}
			if int(f) >= len(fusePatternNames) || fusePatternNames[f] == "" {
				panic(fmt.Sprintf("vm: fused pattern %d has no name", f))
			}
			heads[ef.ins[pc]] = fusePatternNames[f]
		}
	}
	return heads
}

// MemHi returns the machine's written-memory bound.
func MemHi(m *Machine) uint64 { return m.memHi }

// SnapshotMemHi returns the written-memory bound a snapshot recorded.
func SnapshotMemHi(s *Snapshot) uint64 { return s.m.memHi }
