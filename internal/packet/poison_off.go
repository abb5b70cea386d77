//go:build !arenapoison

package packet

// arenaPoison is off in normal builds; see poison_on.go.
const arenaPoison = false
