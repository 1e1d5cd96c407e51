package ir

// Producers walks the use-def producer chain of v (the recursive operands
// that compute it), calling visit on every instruction encountered,
// including v itself when it is an instruction. The walk stops descending at
// any instruction where stop returns true (that instruction is still
// visited); loads, phis, calls and allocas are natural chain terminators for
// the paper's duplication, expressed via stop. Each instruction is visited
// at most once.
func Producers(v Value, stop func(*Instr) bool, visit func(*Instr)) {
	seen := make(map[*Instr]bool)
	var walk func(Value)
	walk = func(x Value) {
		in, ok := x.(*Instr)
		if !ok || seen[in] {
			return
		}
		seen[in] = true
		visit(in)
		if stop(in) {
			return
		}
		for _, a := range in.Args {
			walk(a)
		}
	}
	walk(v)
}
