package feedback

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/dataset"
)

// Request is the POST /v1/feedback body: either one record inline (the
// dataset.Record fields at top level) or a batch under "records". Exactly
// one of the two shapes must be used.
type Request struct {
	dataset.Record
	Records []dataset.Record `json:"records,omitempty"`
}

// ParseRequest strictly decodes a feedback body into its record list.
// Unknown fields, trailing data, mixed single+batch shapes, empty
// envelopes and a record that sends a derived feature are errors; semantic
// validation of each record happens in Store.Add, so a parse success only
// means the envelope is well-formed.
func ParseRequest(data []byte) ([]dataset.Record, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad feedback body: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("bad feedback body: trailing data after the JSON object")
	}
	inline := req.Collective != "" || len(req.Features) > 0 ||
		req.Algorithm != "" || len(req.LatenciesUS) > 0
	var records []dataset.Record
	switch {
	case len(req.Records) > 0 && inline:
		return nil, fmt.Errorf("bad feedback body: use either an inline record or \"records\", not both")
	case len(req.Records) > 0:
		records = req.Records
	case inline:
		records = []dataset.Record{req.Record}
	default:
		return nil, fmt.Errorf("bad feedback body: no record fields and no \"records\" array")
	}
	for i := range records {
		if err := bundle.CheckRequestFeatures(records[i].Features); err != nil {
			return nil, fmt.Errorf("bad feedback body: record %d: %w", i, err)
		}
	}
	return records, nil
}
