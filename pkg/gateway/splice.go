package gateway

import "github.com/pml-mpi/pmlmpi/pkg/selector"

// This file is the merge half of the batch path. The gateway never needs to
// understand a replica's decisions, only to find where each one starts and
// ends (selector.ScanBatchReply), so it copies those bytes into the merged
// reply, adding its "replica" annotation.

// itemResult is the answer to one item of a client's batch.
type itemResult struct {
	// by is the replica whose reply holds span; nil when the gateway itself
	// answers, with err.
	by   *replica
	span selector.ResultSpan
	err  string
}

// appendBatchReply renders the client's reply from the answers, in request
// order: each replica element is copied out of replies as the replica wrote
// it, with "replica" added as its last member, and each gateway-made error
// is written as the single-server schema writes one. The result is what
// json.Encoder gives for {count, errors, results: [{decision, error,
// replica}]} whenever the replicas wrote their elements that way (compact,
// in that key order, empty fields omitted) — as this repository's do.
func appendBatchReply(out []byte, results []itemResult, replies []byte) []byte {
	failed := 0
	for i := range results {
		if results[i].by == nil || results[i].span.Failed {
			failed++
		}
	}
	out = selector.AppendBatchHead(out, len(results), failed)
	for i := range results {
		if i > 0 {
			out = append(out, ',')
		}
		switch res := &results[i]; {
		case res.by == nil:
			out = selector.AppendItemError(out, res.err)
		case res.span.Bare:
			out = append(out, '{')
			out = append(out, res.by.annotation[1:]...)
			out = append(out, '}')
		default:
			out = append(out, replies[res.span.Start:res.span.End-1]...)
			out = append(out, res.by.annotation...)
			out = append(out, '}')
		}
	}
	return append(out, selector.BatchTail...)
}
