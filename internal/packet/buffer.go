package packet

// Buffer is a prepend-oriented serialization buffer, in the style of
// gopacket's SerializeBuffer: outer layers are written in front of the
// bytes already present, so a packet is built by serializing its layers in
// reverse order (payload first, Ethernet last). SerializeLayers does the
// reversal for callers. A Buffer never shrinks: Clear hands its whole
// capacity back as headroom, so a buffer reused across frames stops
// allocating once it has held its largest frame.
type Buffer struct {
	data  []byte // window [start:] of buf holds the current content
	start int
}

// NewBuffer returns a Buffer with room to prepend about headroom bytes
// before reallocating.
func NewBuffer(headroom int) *Buffer {
	if headroom < 0 {
		headroom = 0
	}
	return &Buffer{data: make([]byte, headroom), start: headroom}
}

// Bytes returns the current contents. The slice is invalidated by the next
// Prepend/Clear.
func (b *Buffer) Bytes() []byte { return b.data[b.start:] }

// Len returns the number of content bytes.
func (b *Buffer) Len() int { return len(b.data) - b.start }

// Clear empties the buffer, keeping its whole capacity as headroom.
func (b *Buffer) Clear() {
	b.data = b.data[:cap(b.data)]
	b.start = len(b.data)
}

// Prepend grows the content by n bytes at the front and returns the new
// zeroed region. Growth at least doubles the capacity and leaves room for
// a full header stack in front of the new bytes, so a payload followed by
// its Ethernet, IP and TCP headers reallocates at most once.
func (b *Buffer) Prepend(n int) []byte {
	if n > b.start {
		const headerRoom = 128
		content := b.Len()
		size := max(2*len(b.data), n+content+headerRoom)
		grown := make([]byte, size)
		copy(grown[size-content:], b.Bytes())
		b.data, b.start = grown, size-content
	}
	b.start -= n
	region := b.data[b.start : b.start+n]
	clear(region)
	return region
}

// SerializableLayer is a Layer that can write itself in front of a Buffer's
// current contents, treating those contents as its payload.
type SerializableLayer interface {
	Layer
	// SerializeTo prepends the layer's wire image onto b. Implementations
	// that carry checksums over their payload compute them here.
	SerializeTo(b *Buffer) error
}

// SerializeLayers clears b and writes the given layers so that each wraps
// the ones after it; layers[0] ends up outermost.
func SerializeLayers(b *Buffer, layers ...SerializableLayer) error {
	b.Clear()
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(b); err != nil {
			return err
		}
	}
	return nil
}

// Serialize is a convenience wrapper that allocates a fresh buffer, runs
// SerializeLayers, and returns the resulting frame bytes.
func Serialize(layers ...SerializableLayer) ([]byte, error) {
	b := NewBuffer(128)
	if err := SerializeLayers(b, layers...); err != nil {
		return nil, err
	}
	out := make([]byte, b.Len())
	copy(out, b.Bytes())
	return out, nil
}

// SerializeInto runs SerializeLayers on a caller-owned reusable buffer and
// returns b.Bytes() directly — no per-frame copy. The returned slice is
// invalidated by the next serialization into b, so it must be consumed
// (sent, copied) before b is reused. Hot send paths pair this with a
// per-host buffer: the netsim switch copies frames into its arena at
// enqueue time, so handing it a view into a reusable buffer is safe.
func SerializeInto(b *Buffer, layers ...SerializableLayer) ([]byte, error) {
	if err := SerializeLayers(b, layers...); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Arena is a bump allocator for immutable byte blobs: CopyIn copies a
// slice into a large shared chunk and returns a full-capacity-clipped view
// of the copy. One allocation per chunk replaces one per blob, which is
// what makes the per-frame paths (switch queue, capture records) cheap.
// Returned slices stay valid (and immutable) until the next Reset, which
// keeps every chunk for reuse: an arena Reset at a steady cadence reaches
// a state where CopyIn never allocates at all, and its size is bounded by
// the most it ever held between two Resets.
type Arena struct {
	chunks [][]byte
	cur    int
	// ChunkSize is the allocation granularity; 0 means 1 MiB.
	ChunkSize int
}

// CopyIn copies b into the arena and returns the stable copy.
func (a *Arena) CopyIn(b []byte) []byte {
	n := len(b)
	for {
		if a.cur == len(a.chunks) {
			size := a.ChunkSize
			if size <= 0 {
				size = 1 << 20
			}
			size = max(size, n)
			a.chunks = append(a.chunks, make([]byte, 0, size))
		}
		c := a.chunks[a.cur]
		if cap(c)-len(c) >= n {
			off := len(c)
			c = append(c, b...)
			a.chunks[a.cur] = c
			return c[off : off+n : off+n]
		}
		a.cur++
	}
}

// Chunks reports how many chunks the arena holds, used or not.
func (a *Arena) Chunks() int { return len(a.chunks) }

// Reset rewinds the arena to empty while keeping every chunk's capacity,
// invalidating all slices previously returned by CopyIn: their bytes will
// be overwritten by subsequent CopyIns. Callers must ensure nothing still
// references the arena's memory before calling Reset. Built with the
// arenapoison tag, Reset also overwrites the released bytes with 0xA5.
func (a *Arena) Reset() {
	for i := range a.chunks {
		if arenaPoison {
			c := a.chunks[i]
			for j := range c {
				c[j] = 0xA5
			}
		}
		a.chunks[i] = a.chunks[i][:0]
	}
	a.cur = 0
}

// Raw is a SerializableLayer wrapping literal payload bytes.
type Raw []byte

// LayerType implements Layer.
func (Raw) LayerType() LayerType { return LayerTypePayload }

// SerializeTo implements SerializableLayer.
func (r Raw) SerializeTo(b *Buffer) error {
	copy(b.Prepend(len(r)), r)
	return nil
}
