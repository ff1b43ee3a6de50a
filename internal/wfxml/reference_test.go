package wfxml

import (
	"encoding/xml"
	"fmt"
	"io"

	"wfreach/internal/spec"
)

// ReferenceDecodeSpec is the reflection decoder DecodeSpec replaced:
// encoding/xml's Decode into xmlSpec, built as DecodeSpec builds what
// it scans. The fuzz test holds the scanner to it.
func ReferenceDecodeSpec(r io.Reader) (*spec.Spec, error) {
	var x xmlSpec
	if err := xml.NewDecoder(r).Decode(&x); err != nil {
		return nil, fmt.Errorf("wfxml: %w", err)
	}
	return x.build()
}
