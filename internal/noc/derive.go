package noc

import (
	"fmt"
	"math/bits"
)

// rebuild walks a component's derived fields the way a snapshot.Codec walks
// its primary ones: one description, two directions. A restore stores what
// the primary state implies in every field; an audit compares instead and
// keeps the first field that differs. Snapshots therefore carry no derived
// field, and what the checker holds the datapath's masks against is by
// construction what a restore would have given it.
type rebuild struct {
	audit bool
	err   error
}

// restate handles one derived field: live is the field, want what the primary
// state implies, name what an audit calls it.
func restate[T comparable](b *rebuild, live *T, want T, name string) {
	switch {
	case !b.audit:
		*live = want
	case b.err == nil && *live != want:
		b.err = fmt.Errorf("%s is %#v, but the primary state implies %#v", name, *live, want)
	}
}

// derive restates every derived field of the router and of its input VCs
// (DESIGN.md §4b lists them) from the primary state: the occupied list, what
// each VC holds, the switch streams behind outStream, the link rings and the
// filter entries. It reads the credit-return rings of the neighbours, so a
// restore runs it once every router is decoded. The caller has validated the
// primary state — in particular that every pending bit names a port — so
// nothing here can fail.
func (r *Router) derive(b *rebuild) {
	var (
		arrQueued, credQueued, heldIn, heldOut, wantOut uint8
		unrouted                                        uint64
		candMask, portOcc                               [NumPorts]uint64
		invCand                                         [NumPorts]int16
		candV                                           [NumPorts][NumVNets]int16
		freeVCs                                         [NumPorts]uint16
		inLock                                          [NumPorts]*stream
		// occPos by VC number (port-major; Validate caps a router at 64 VCs).
		occPos [64]int8
	)
	for o, s := range r.outStream {
		if s != nil {
			heldOut |= 1 << uint(o)
			heldIn |= 1 << uint(s.inPort)
			inLock[s.inPort] = s
		}
	}
	for i := range occPos {
		occPos[i] = -1
	}
	perPort := len(r.in[0])
	for pos, vc := range r.occ {
		occPos[int(vc.port)*perPort+int(vc.idx)] = int8(pos)
	}
	for p := range r.in {
		for i := range r.in[p] {
			vc, pos := &r.in[p][i], occPos[p*perPort+i]
			var active *stream
			if s := inLock[p]; s != nil && s.vc == vc {
				active = s
			}
			restate(b, &vc.occPos, pos, "a VC's occPos")
			restate(b, &vc.active, active, "a VC's active stream")
			if pos < 0 {
				freeVCs[p] |= 1 << uint(i)
				continue
			}
			bit := uint64(1) << uint(pos)
			portOcc[p] |= bit
			switch {
			case vc.pkt == nil:
			case !vc.routed:
				unrouted |= bit
			case active == nil:
				// The candidates rule: routed, not streaming, ports pending.
				for m := vc.pending; m != 0; m &= m - 1 {
					o := bits.TrailingZeros8(m)
					candMask[o] |= bit
					wantOut |= 1 << uint(o)
					candV[o][vc.vnet]++
					if vc.pkt.IsInv {
						invCand[o]++
					}
				}
			}
		}
	}
	for p := range r.arrivals {
		if r.arrivals[p].len() != 0 {
			arrQueued |= 1 << uint(p)
		}
		if nb := r.nbr[p]; nb != nil && nb.credRet[opposite[p]].len() != 0 {
			credQueued |= 1 << uint(p)
		}
	}
	restate(b, &r.freeVCs, freeVCs, "freeVCs")
	restate(b, &r.portOcc, portOcc, "portOcc")
	restate(b, &r.unrouted, unrouted, "unrouted mask")
	restate(b, &r.candMask, candMask, "candMask")
	restate(b, &r.candV, candV, "candV")
	restate(b, &r.invCand, invCand, "invCand")
	restate(b, &r.wantOut, wantOut, "wantOut mask")
	restate(b, &r.heldIn, heldIn, "heldIn mask")
	restate(b, &r.heldOut, heldOut, "heldOut mask")
	restate(b, &r.arrQueued, arrQueued, "queued-ring masks: arrQueued")
	restate(b, &r.credQueued, credQueued, "queued-ring masks: credQueued")
	if r.filters != nil {
		r.filters.derive(b)
	}
}
