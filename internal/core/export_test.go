package core

import "wfreach/internal/spec"

// Grammar returns the grammar being labeled.
func (b *base) Grammar() *spec.Grammar { return b.g }

// LabelCount returns the number of labels issued so far.
func (b *base) LabelCount() int { return b.ctx.n }
