//go:build !arenapoison

package netsim

// frameCheck is empty in normal builds, and the check hooks Run calls
// compile to nothing; see check_on.go.
type frameCheck struct{}

func (n *Network) checkBegin([]byte)         {}
func (n *Network) checkTap([]byte, Tap)      {}
func (n *Network) checkHost([]byte, *Port)   {}
func (n *Network) checkDelivery([]byte, int) {}
