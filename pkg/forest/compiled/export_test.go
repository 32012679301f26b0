package compiled

// ArenaLenCap reports the lengths and capacities of cf's node arena and
// leaf distributions, for the external tests.
func ArenaLenCap(cf *Forest) (nodes, nodesCap, probs, probsCap int) {
	return len(cf.nodes), cap(cf.nodes), len(cf.leafProbs), cap(cf.leafProbs)
}
