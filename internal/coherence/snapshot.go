package coherence

import (
	"fmt"

	"pushmulticast/internal/snapshot"
)

// MsgState describes one optional protocol message. Only protocol fields
// travel; pool membership is not observable state. Every holder in a
// snapshot decodes its own copy carrying exactly one reference (refs=1):
// sharing between a packet and its router replicas — or a retransmit-window
// prototype — is not observable (no payload pointers are ever compared), and
// one ref per holder means each holder's single eventual Release is balanced.
func MsgState(c *snapshot.Codec, pm **Msg) {
	if !snapshot.Has(c, pm) {
		return
	}
	if c.Decoding() {
		*pm = &Msg{refs: 1}
	}
	(*pm).fields(c)
}

func (m *Msg) fields(c *snapshot.Codec) {
	snapshot.AsU8(c, &m.Type)
	c.U64(&m.Addr)
	snapshot.AsU32(c, &m.Requester)
	c.U64(&m.Version)
	c.U32(&m.Epoch)
	c.Bool(&m.NeedPush)
	c.Bool(&m.Reset)
	c.Bool(&m.Prefetch)
	c.Bool(&m.Recall)
	c.Bool(&m.Private)
}

// Codec implements noc.PayloadCodec for protocol messages — the only
// payload type the simulator ever attaches to packets.
type Codec struct{}

// Payload implements noc.PayloadCodec: MsgState for a message held in a
// packet's untyped Payload field.
func (Codec) Payload(c *snapshot.Codec, pl *any) {
	m, ok := (*pl).(*Msg)
	if *pl != nil && !ok {
		panic(fmt.Sprintf("coherence: cannot snapshot payload type %T", *pl))
	}
	if !c.Flag(m != nil) {
		return
	}
	if c.Decoding() {
		m = &Msg{refs: 1}
		*pl = m
	}
	m.fields(c)
}
