package label

// Append returns a new label extending l with one entry, sharing no
// array with l.
func (l Label) Append(e Entry) Label {
	entries := make([]Entry, len(l.Entries)+1)
	copy(entries, l.Entries)
	entries[len(l.Entries)] = e
	return Label{Entries: entries}
}

// WireBits is the encoded length of l in bits before the stop bit and
// the padding to a whole byte.
func (c *Codec) WireBits(l Label) int {
	_, wire := c.sizes(l)
	return wire
}
