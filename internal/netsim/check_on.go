//go:build arenapoison

package netsim

import (
	"fmt"
	"hash/maphash"
	"reflect"

	"v6lab/internal/packet"
)

// frameCheck holds the arenapoison build's read-only check: the hash of
// the frame being delivered, taken before its first tap and compared after
// every tap and host, and a decoder that re-walks the frame after its last
// receiver to compare with the shared view. Either mismatch panics, naming
// the tap or port that wrote.
type frameCheck struct {
	seed maphash.Seed
	sum  uint64
	dec  packet.Decoder
}

func (n *Network) checkBegin(frame []byte) {
	c := &n.check
	if c.seed == (maphash.Seed{}) {
		c.seed = maphash.MakeSeed()
	}
	c.sum = maphash.Bytes(c.seed, frame)
}

func (n *Network) checkTap(frame []byte, tap Tap) {
	if maphash.Bytes(n.check.seed, frame) != n.check.sum {
		panic(fmt.Sprintf("netsim: tap %T wrote into the frame it was delivered", tap))
	}
}

func (n *Network) checkHost(frame []byte, p *Port) {
	if maphash.Bytes(n.check.seed, frame) != n.check.sum {
		panic(fmt.Sprintf("netsim: host on port %d (%v) wrote into the frame it was delivered", p.index, p.MAC))
	}
}

func (n *Network) checkDelivery(frame []byte, from int) {
	if n.view != nil && !reflect.DeepEqual(n.view, n.check.dec.Parse(frame)) {
		panic(fmt.Sprintf("netsim: a tap or host wrote into the decoded view of a frame from port %d (%v)", from, n.ports[from].MAC))
	}
}
