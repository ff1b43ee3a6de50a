package core

import (
	"wfreach/internal/label"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
)

// Grammar returns the grammar being labeled.
func (b *base) Grammar() *spec.Grammar { return b.g }

// LabelCount returns the number of labels issued so far.
func (b *base) LabelCount() int { return b.ctx.n }

// RecFlags walks enc, a label of codec c, to its entry k, a
// recursion-chain member, fills in the member's origin as PiBytes does,
// and returns it with the two flags π derives for the member: rec1,
// where the member is v's, and rec2, where it is v′'s.
func RecFlags(c *label.Codec, skel *skeleton.Scheme, enc []byte, k int) (origin spec.VertexRef, rec1, rec2 bool, err error) {
	var cu label.Cursor
	var m, scratch label.Entry
	if err = cu.Reset(c, enc); err != nil {
		return origin, false, false, err
	}
	for i := 0; i <= k; i++ {
		if _, err = cu.Next(&m); err != nil {
			return origin, false, false, err
		}
	}
	if err = below(&cu, &m, &scratch); err != nil {
		return origin, false, false, err
	}
	if rec1, err = recFlag(skel, &m, true); err != nil {
		return origin, false, false, err
	}
	rec2, err = recFlag(skel, &m, false)
	return m.Skl, rec1, rec2, err
}
