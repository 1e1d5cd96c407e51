package ir

import "sort"

// Loop is a natural loop: Header dominates every block in Body, and at
// least one Body block (a latch) branches back to Header.
type Loop struct {
	Header  *Block
	Latches []*Block // blocks with a back edge to Header
	Body    []*Block // includes Header
	Parent  *Loop    // innermost enclosing loop, if any
	Depth   int      // 1 for outermost
	inBody  map[*Block]bool
}

// Contains reports whether b is inside the loop.
func (l *Loop) Contains(b *Block) bool { return l.inBody[b] }

// FindLoops discovers all natural loops of f via back edges in the dominator
// tree, merging loops that share a header. Returned loops are sorted
// outermost first (by body size, descending).
func FindLoops(f *Func, dt *DomTree) []*Loop {
	byHeader := make(map[*Block]*Loop)

	for _, b := range dt.RPO {
		for _, s := range b.Succs {
			if !dt.Dominates(s, b) {
				continue // not a back edge
			}
			l := byHeader[s]
			if l == nil {
				l = &Loop{Header: s, inBody: map[*Block]bool{s: true}, Body: []*Block{s}}
				byHeader[s] = l
			}
			l.Latches = append(l.Latches, b)
			// Collect the loop body: all blocks that reach the latch
			// without passing through the header (reverse flood fill).
			stack := []*Block{b}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.inBody[x] {
					continue
				}
				l.inBody[x] = true
				l.Body = append(l.Body, x)
				for _, p := range x.Preds {
					if dt.Reachable(p) {
						stack = append(stack, p)
					}
				}
			}
		}
	}

	loops := make([]*Loop, 0, len(byHeader))
	for _, l := range byHeader {
		loops = append(loops, l)
	}
	sort.Slice(loops, func(i, j int) bool {
		if len(loops[i].Body) != len(loops[j].Body) {
			return len(loops[i].Body) > len(loops[j].Body)
		}
		return loops[i].Header.Index < loops[j].Header.Index
	})

	// Nesting: the innermost enclosing loop of l is the containing loop
	// with the smallest body.
	for _, l := range loops {
		var best *Loop
		for _, o := range loops {
			if o == l || !o.inBody[l.Header] {
				continue
			}
			if best == nil || len(o.Body) < len(best.Body) {
				best = o
			}
		}
		l.Parent = best
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	return loops
}
