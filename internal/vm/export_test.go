package vm

// FlattenedHighWater reports, after a run, how far m's flattened call
// stack reached: the number of frame records it has held at once (popped
// records stay in place for reuse) and the highest arena register a
// suspended caller's window covered, together with the arena size.
func FlattenedHighWater(m *Machine) (frames, top, arena int) {
	for _, f := range m.frames {
		if f.p != nil && f.base+f.p.NumRegs > top {
			top = f.base + f.p.NumRegs
		}
	}
	return len(m.frames), top, len(m.stack)
}
