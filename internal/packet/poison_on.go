//go:build arenapoison

package packet

// arenaPoison is set by the arenapoison build tag: Arena.Reset then fills
// every released byte with 0xA5, so a host or tap that keeps a frame past
// its lifetime reads garbage and fails loudly instead of passing by luck.
const arenaPoison = true
