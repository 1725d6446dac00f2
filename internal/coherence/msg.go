// Package coherence defines the protocol message vocabulary exchanged
// between private L2 caches, LLC directory slices, and memory controllers,
// plus the mapping from message type to NoC virtual network, traffic class,
// and packet size.
//
// The protocol is an invalidation-based MSI with centralized invalidation-
// acknowledgment collection at the directory, extended with the paper's push
// machinery: PushData speculative multicasts, PushAck acknowledgments (the
// PushAck coherence variant), and epoch-tagged invalidations so stale acks
// from writeback races can never corrupt a later collection episode.
package coherence

import (
	"fmt"

	"pushmulticast/internal/noc"
	"pushmulticast/internal/stats"
)

// MsgType enumerates the protocol messages.
type MsgType uint8

// Protocol message types.
const (
	// GetS is a shared-read request from an L2 to the home LLC slice.
	GetS MsgType = iota
	// GetM is a write (read-for-ownership) request from an L2 to the home.
	GetM
	// PutM is a dirty writeback (with data) from an M-state owner.
	PutM
	// WBAck acknowledges a PutM, closing the writeback episode at the L2.
	WBAck
	// Inv asks a private cache to invalidate a line; it carries the
	// directory's per-line epoch so acknowledgments can be matched.
	Inv
	// InvAck acknowledges an Inv when the private cache held the line
	// clean (or not at all).
	InvAck
	// InvAckData acknowledges an Inv from an M-state owner and carries the
	// dirty data back to the directory.
	InvAckData
	// DataS is a shared-state data response (LLC -> L2).
	DataS
	// DataM is an exclusive/modified data response granting ownership.
	DataM
	// PushData is a speculative push multicast of a shared line.
	PushData
	// PushAck acknowledges receipt of a PushData at a private cache
	// (PushAck coherence variant only).
	PushAck
	// MemRead asks a memory controller for a line.
	MemRead
	// MemWrite writes a dirty line back to memory.
	MemWrite
	// MemData is a memory controller's read response.
	MemData

	// NumMsgTypes is the number of message types.
	NumMsgTypes
)

var msgNames = [NumMsgTypes]string{
	"GetS", "GetM", "PutM", "WBAck", "Inv", "InvAck", "InvAckData",
	"DataS", "DataM", "PushData", "PushAck", "MemRead", "MemWrite", "MemData",
}

// String returns the message type name.
func (t MsgType) String() string {
	if int(t) < len(msgNames) {
		return msgNames[t]
	}
	return "Unknown"
}

// Msg is one protocol message, a plain value. It travels inline in a
// noc.Packet: FillPacket writes it into the packet's header and message
// words, From reads it back.
type Msg struct {
	Type MsgType
	// Addr is the line address (64-byte aligned).
	Addr uint64
	// Requester is the tile whose demand the message concerns: the
	// original requester for requests and data, the acker for acks.
	Requester noc.NodeID
	// Version is the line's write-serial number; data-carrying messages
	// transport it and the coherence checkers validate it.
	Version uint64
	// Epoch tags Inv/InvAck/InvAckData so that acknowledgments from stale
	// invalidation episodes are discarded.
	Epoch uint32
	// NeedPush, on GetS, is the requester's push-pause feedback bit
	// (§III-D); false asks the home to exclude the requester from pushes.
	NeedPush bool
	// Reset, on data responses, tells the receiving L2 to clear its
	// TPC/UPC counters (push-resume knob).
	Reset bool
	// Prefetch marks GetS messages issued by a prefetcher rather than a
	// demand miss.
	Prefetch bool
	// Recall marks an Inv targeting the line's owner (the directory needs
	// the data back). A private cache that receives a recall while its
	// DataM is still in flight must wait for the data, use it once, and
	// only then reply with InvAckData — otherwise the recall would strand
	// the directory waiting for data that never comes.
	Recall bool
	// Private marks a DataS response to a line with no other sharer: the
	// MESI-class machines the paper models would have returned Exclusive
	// data, so traffic accounting classifies these as exclusive rather
	// than read-shared.
	Private bool
}

// String implements fmt.Stringer.
func (m Msg) String() string {
	return fmt.Sprintf("%v{addr=%#x req=%d ver=%d ep=%d}", m.Type, m.Addr, m.Requester, m.Version, m.Epoch)
}

// route returns the virtual network, traffic class, and whether the message
// is line-data-sized for each message type.
func route(t MsgType) (vnet int, class stats.Class, data bool) {
	switch t {
	case GetS:
		return noc.VNetReq, stats.ClassReadRequest, false
	case GetM:
		return noc.VNetReq, stats.ClassOther, false
	case MemRead:
		return noc.VNetReq, stats.ClassOther, false
	case Inv, WBAck:
		return noc.VNetCtrl, stats.ClassOther, false
	case InvAck:
		return noc.VNetData, stats.ClassOther, false
	case InvAckData:
		return noc.VNetData, stats.ClassWriteBackData, true
	case PutM:
		return noc.VNetData, stats.ClassWriteBackData, true
	case DataS:
		return noc.VNetData, stats.ClassReadSharedData, true
	case DataM:
		return noc.VNetData, stats.ClassExclusiveData, true
	case PushData:
		return noc.VNetData, stats.ClassPushData, true
	case PushAck:
		return noc.VNetData, stats.ClassPushAck, false
	case MemWrite:
		return noc.VNetData, stats.ClassOther, true
	case MemData:
		return noc.VNetData, stats.ClassOther, true
	}
	panic(fmt.Sprintf("coherence: unroutable message type %d", t))
}

// Packet wraps the message in a NoC packet addressed to dests. The NoC
// config determines data packet sizing; srcUnit/dstUnit select endpoint
// kinds at the source and destination tiles.
func (m Msg) Packet(cfg noc.Config, srcUnit, dstUnit stats.Unit, dests noc.DestSet) *noc.Packet {
	p := &noc.Packet{}
	m.FillPacket(p, cfg, srcUnit, dstUnit, dests)
	return p
}

// FillPacket writes the message into an existing (zeroed) packet, typically
// one drawn from the network's free list via NI.NewPacket. Fields are set
// individually so the packet's pool bookkeeping is left untouched.
func (m Msg) FillPacket(p *noc.Packet, cfg noc.Config, srcUnit, dstUnit stats.Unit, dests noc.DestSet) {
	vnet, class, data := route(m.Type)
	if m.Type == DataS && m.Private {
		class = stats.ClassExclusiveData
	}
	size := cfg.CtrlPacketSize()
	if data {
		size = cfg.DataPacketSize()
	}
	p.VNet = vnet
	p.Class = class
	p.SrcUnit = srcUnit
	p.DstUnit = dstUnit
	p.Dests = dests
	p.Addr = m.Addr
	p.Size = size
	p.IsPush = m.Type == PushData
	p.Filterable = m.Type == GetS
	p.IsInv = m.Type == Inv
	p.Requester = m.Requester
	p.Version = m.Version
	p.Epoch = m.Epoch
	p.MsgType = uint8(m.Type)
	p.MsgFlags = noc.MsgPresent | flag(m.NeedPush, noc.MsgNeedPush) | flag(m.Reset, noc.MsgReset) |
		flag(m.Prefetch, noc.MsgPrefetch) | flag(m.Recall, noc.MsgRecall) | flag(m.Private, noc.MsgPrivate)
}

func flag(set bool, bit uint8) uint8 {
	if set {
		return bit
	}
	return 0
}

// From returns the message a delivered packet carries. A packet without one
// (a transport ack) never reaches an endpoint, so finding one is a bug.
func From(p *noc.Packet) Msg {
	if p.MsgFlags&noc.MsgPresent == 0 {
		panic(fmt.Sprintf("coherence: %v carries no protocol message", p))
	}
	return Msg{
		Type:      MsgType(p.MsgType),
		Addr:      p.Addr,
		Requester: p.Requester,
		Version:   p.Version,
		Epoch:     p.Epoch,
		NeedPush:  p.MsgFlags&noc.MsgNeedPush != 0,
		Reset:     p.MsgFlags&noc.MsgReset != 0,
		Prefetch:  p.MsgFlags&noc.MsgPrefetch != 0,
		Recall:    p.MsgFlags&noc.MsgRecall != 0,
		Private:   p.MsgFlags&noc.MsgPrivate != 0,
	}
}
