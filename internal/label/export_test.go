package label

// PointerBits returns the skeleton-pointer width in bits.
func (c *Codec) PointerBits() int { return int(c.ptrBits) }

// Append returns a new label extending l with one entry, sharing no
// array with l.
func (l Label) Append(e Entry) Label {
	entries := make([]Entry, len(l.Entries)+1)
	copy(entries, l.Entries)
	entries[len(l.Entries)] = e
	return Label{Entries: entries}
}
