package directory

// DumpEntries calls fn for every allocated entry in ascending block
// order. Snapshot encoders use it: re-inserting the same entries in
// the same order on restore rebuilds an equivalent table (the probe
// layout may differ, but only Entry/Probe behavior is observable, and
// that depends solely on the block→entry mapping).
func (d *Directory) DumpEntries(fn func(block uint32, e *Entry)) {
	for _, block := range d.tab.SortedKeys() {
		fn(block, d.tab.Ref(block))
	}
}

// Members returns the sharer set as an ascending node list (a
// snapshot-friendly form of AppendMembers).
func (s *Sharers) Members() []int { return s.AppendMembers(nil, -1) }
