//go:build arenapoison

package netsim

import (
	"strings"
	"testing"

	"v6lab/internal/packet"
)

// writerHost decodes each frame it is handed and then writes into it.
type writerHost struct {
	port  *Port
	write func(frame []byte, h *writerHost)
}

func (h *writerHost) HandleFrame(frame []byte) { h.write(frame, h) }

// mustPanicNaming runs one multicast delivery to a plain viewHost and a
// writer, and requires the switch's read-only check to panic with want
// in its message.
func mustPanicNaming(t *testing.T, want string, write func(frame []byte, h *writerHost)) {
	t.Helper()
	n, hs, _ := newViewNet(2)
	w := &writerHost{write: write}
	w.port = n.Attach(w, packet.MAC{2, 0, 0, 0, 2, 0})
	hs[0].port.Send(udp6Frame(allNodes, hs[0].port.MAC, srcOne))
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, want) {
			t.Errorf("panic %v, want one naming %q", r, want)
		}
	}()
	n.Run(10)
}

// TestReadOnlyFrame: a host that flips one byte of a delivered frame is
// named by the check.
func TestReadOnlyFrame(t *testing.T) {
	mustPanicNaming(t, "port 2 (02:00:00:00:02:00) wrote into the frame", func(frame []byte, _ *writerHost) {
		frame[len(frame)-1] ^= 1
	})
}

// TestReadOnlyView: a host that writes a field of the shared decoded view
// fails the re-walk after the last receiver.
func TestReadOnlyView(t *testing.T) {
	mustPanicNaming(t, "wrote into the decoded view of a frame from port 0", func(frame []byte, h *writerHost) {
		h.port.Decode(frame).IPv6.HopLimit = 64
	})
}
