package circuit

// Edit recorder: every netlist edit stamps the edited node with a new
// circuit generation. A holder of derived per-node state (levels, cuts, path
// labels, simulation values) remembers the generation it last synchronized
// at, asks TouchedSince which nodes moved after it, and recomputes just
// their cone instead of rebuilding from scratch. Reading resets nothing, so
// any number of holders — Freeze's level patch, the resynthesis pass state —
// each keep their own generation.
//
// A node is touched when its own definition changes — type, fanin list,
// liveness, name, primary-output designation — or when it is newly added.
// Consumers rewired by ReplaceUses are touched (their fanin changed), and so
// are the old and new endpoints of a rewiring (their fanout sets changed),
// so the set covers every node whose local neighborhood moved. Values that
// depend on a wider cone (e.g. transitive fanin functions) must be
// invalidated by closure over the touched set; that closure is the caller's
// job.

// Gen returns the circuit's edit generation: 0 for a new or cloned circuit,
// advanced by every edit.
func (c *Circuit) Gen() uint64 { return c.gen }

// TouchedSince appends to dst the IDs of the nodes edited after generation
// gen, in ascending order, and returns the extended slice.
func (c *Circuit) TouchedSince(gen uint64, dst []int) []int {
	for id, nd := range c.Nodes {
		if nd != nil && nd.edited > gen {
			dst = append(dst, id)
		}
	}
	return dst
}

// touch stamps node id with a new generation.
func (c *Circuit) touch(id int) {
	c.gen++
	c.Nodes[id].edited = c.gen
}
