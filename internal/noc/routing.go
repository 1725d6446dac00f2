package noc

// routeMode returns a vnet's dimension order as a Router.dmask index: 1 for
// XY, 0 for YX. Requests travel XY and responses/pushes travel YX so a push
// retraces request paths in reverse, maximizing in-network filtering
// opportunities (§III-C).
func routeMode(vnet int) int {
	if vnet == VNetReq {
		return 1
	}
	return 0
}

// nextPort computes the output port for one destination from the router at
// cur, under XY or YX dimension-order routing.
func (c Config) nextPort(cur, dst NodeID, xyFirst bool) int {
	if cur == dst {
		return PortLocal
	}
	cx, cy := c.XY(cur)
	dx, dy := c.XY(dst)
	if xyFirst {
		if dx > cx {
			return PortEast
		}
		if dx < cx {
			return PortWest
		}
	} else {
		if dy > cy {
			return PortSouth
		}
		if dy < cy {
			return PortNorth
		}
	}
	if dy > cy {
		return PortSouth
	}
	if dy < cy {
		return PortNorth
	}
	if dx > cx {
		return PortEast
	}
	return PortWest
}

// routeDests partitions a destination set into per-output-port subsets for
// the router at cur. The result is the multicast route computation: each
// non-empty subset becomes one packet replica.
func (c Config) routeDests(cur NodeID, dests DestSet, xyFirst bool) [NumPorts]DestSet {
	var out [NumPorts]DestSet
	dests.ForEach(func(d NodeID) {
		p := c.nextPort(cur, d, xyFirst)
		out[p] = out[p].Add(d)
	})
	return out
}

// neighbour returns the node adjacent to n through output port p, or -1 if
// the port faces the mesh edge.
func (c Config) neighbour(n NodeID, p int) NodeID {
	x, y := c.XY(n)
	switch p {
	case PortNorth:
		y--
	case PortSouth:
		y++
	case PortEast:
		x++
	case PortWest:
		x--
	default:
		return -1
	}
	if x < 0 || x >= c.Width || y < 0 || y >= c.Height {
		return -1
	}
	return c.Node(x, y)
}
