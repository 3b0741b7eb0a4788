// Package badnodemut injects nodemut-rule violations. It is a lint fixture:
// the go tool never builds testdata, only sftlint's own loader does.
package badnodemut

import "compsynth/internal/circuit"

// Retype flips a gate type behind the edit recorder's back.
func Retype(c *circuit.Circuit, id int) {
	c.Nodes[id].Type = circuit.And
}

// Rewire writes a fanin slot directly.
func Rewire(nd *circuit.Node, src int) {
	nd.Fanin[0] = src
}

// Extend grows a fanin list directly.
func Extend(c *circuit.Circuit, id, src int) {
	c.Nodes[id].Fanin = append(c.Nodes[id].Fanin, src)
}

// Truncate replaces the node slice wholesale.
func Truncate(c *circuit.Circuit) {
	c.Nodes = nil
}

// Retarget is clean: reads plus an edit-stamping mutator.
func Retarget(c *circuit.Circuit, id, pin, src int) {
	if c.Nodes[id].Fanin[pin] != src {
		c.SetFanin(id, pin, src)
	}
}
