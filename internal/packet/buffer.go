package packet

// Buffer is a prepend-oriented serialization buffer, in the style of
// gopacket's SerializeBuffer: outer layers are written in front of the
// bytes already present, so a packet is built by serializing its layers in
// reverse order (payload first, Ethernet last). SerializeLayers does the
// reversal for callers. A Buffer never shrinks: Clear hands its whole
// capacity back as headroom, so a buffer reused across frames stops
// allocating once it has held its largest frame.
//
// Every layer writes every byte it prepends, so Prepend hands out regions
// without clearing them, and a layer that writes its payload in closed
// form (Fill) records the payload's ones'-complement sum here, so the
// transport header over it checksums the payload without reading it back.
type Buffer struct {
	data  []byte // window [start:] of buf holds the current content
	start int
	// sum is the ones'-complement sum of the current content when sumOK;
	// Prepend and Clear forget it.
	sum   uint32
	sumOK bool
	// arena, when set, owns data: the buffer is building a frame in one of
	// the arena's chunks, and outgrowing it spills into the next chunk
	// instead of a heap-grown copy.
	arena *Arena
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
	b.sumOK = false
}

// headerRoom is the space a growing buffer leaves in front of its content
// for the header stack still to come.
const headerRoom = 128

// Prepend grows the content by n bytes at the front and returns the new
// region. The region is not cleared: it holds whatever the memory held
// before, so the caller must write every byte of it. Growth at least
// doubles the capacity and leaves room for a full header stack in front
// of the new bytes, so a payload followed by its Ethernet, IP and TCP
// headers reallocates at most once; an arena-backed buffer instead moves
// to the arena's next chunk.
func (b *Buffer) Prepend(n int) []byte {
	if n > b.start {
		if b.arena != nil {
			b.arena.spill(b, n)
		} else {
			content := b.Len()
			size := max(2*len(b.data), n+content+headerRoom)
			grown := make([]byte, size)
			copy(grown[size-content:], b.Bytes())
			b.data, b.start = grown, size-content
		}
	}
	b.start -= n
	b.sumOK = false
	return b.data[b.start : b.start+n]
}

// contentSum returns the ones'-complement sum of the current content: the
// one its writer recorded, or else a pass over the bytes.
func (b *Buffer) contentSum() uint32 {
	if b.sumOK {
		return b.sum
	}
	return sum16(0, b.Bytes())
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
// (sent, copied) before b is reused.
func SerializeInto(b *Buffer, layers ...SerializableLayer) ([]byte, error) {
	if err := SerializeLayers(b, layers...); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Arena is a bump allocator frames are built in: Serialize writes a
// frame's layers straight into a large shared chunk and returns a
// cap-clipped view of it. One allocation per chunk replaces one per frame,
// which is what makes the switch queue cheap, and no byte is copied on
// the way in. Each chunk fills from the top down, so a frame built by
// prepending its layers ends directly below the previous one. Returned
// frames stay valid (and immutable) until the next Reset, which keeps
// every chunk for reuse: an arena Reset at a steady cadence reaches a
// state where Serialize never allocates at all, and its size is bounded by
// the most it ever held between two Resets.
type Arena struct {
	// chunks[i] is chunk i's free space: the bytes below the frames built
	// in it, with the chunk's whole capacity.
	chunks [][]byte
	cur    int
	// b builds the frame in progress, inside chunks[cur].
	b Buffer
	// ChunkSize is the allocation granularity; 0 means 1 MiB.
	ChunkSize int
}

// Serialize builds the frame layers describe (layers[0] outermost, as in
// SerializeLayers) in the arena and returns it. A failed serialization
// leaves no frame behind.
func (a *Arena) Serialize(layers ...SerializableLayer) ([]byte, error) {
	if a.cur == len(a.chunks) {
		a.grow(0)
	}
	free := a.chunks[a.cur]
	a.b = Buffer{data: free[:len(free):len(free)], arena: a}
	if err := SerializeLayers(&a.b, layers...); err != nil {
		return nil, err
	}
	a.chunks[a.cur] = a.chunks[a.cur][:a.b.start]
	return a.b.Bytes(), nil
}

// grow appends a chunk of at least need bytes.
func (a *Arena) grow(need int) {
	size := a.ChunkSize
	if size <= 0 {
		size = 1 << 20
	}
	a.chunks = append(a.chunks, make([]byte, max(size, need)))
}

// spill moves the frame b is building to the next chunk with room for n
// more bytes in front of it, copying only the part already built. Chunks
// too small for it are skipped until the next Reset.
func (a *Arena) spill(b *Buffer, n int) {
	built := b.Bytes()
	need := n + len(built)
	for {
		a.cur++
		if a.cur == len(a.chunks) {
			a.grow(need + headerRoom)
		}
		if free := a.chunks[a.cur]; len(free) >= need {
			top := len(free)
			copy(free[top-len(built):], built)
			b.data, b.start = free[:top:top], top-len(built)
			return
		}
	}
}

// Chunks reports how many chunks the arena holds, used or not.
func (a *Arena) Chunks() int { return len(a.chunks) }

// Reset rewinds the arena to empty while keeping every chunk's capacity,
// invalidating all frames previously returned by Serialize: their bytes
// will be overwritten by later frames. Callers must ensure nothing still
// references the arena's memory before calling Reset. Built with the
// arenapoison tag, Reset also overwrites the released bytes with 0xA5.
func (a *Arena) Reset() {
	for i, free := range a.chunks {
		c := free[:cap(free)]
		if arenaPoison {
			for j := len(free); j < len(c); j++ {
				c[j] = 0xA5
			}
		}
		a.chunks[i] = c
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

// Fill is a payload of Prefix followed by N copies of Byte: the shape of
// the testbed's synthetic application data, a TLS hello and then 0x17
// record bytes. It writes the fill with doubling copies and, as the
// innermost layer, records the ones'-complement sum of what it wrote in
// closed form, so a TCP or UDP header serialized over it sums only the
// pseudo-header, itself and Prefix.
type Fill struct {
	Prefix []byte
	Byte   byte
	N      int
}

// LayerType implements Layer.
func (*Fill) LayerType() LayerType { return LayerTypePayload }

// SerializeTo implements SerializableLayer.
func (f *Fill) SerializeTo(b *Buffer) error {
	innermost := b.Len() == 0
	region := b.Prepend(len(f.Prefix) + f.N)
	fill := region[copy(region, f.Prefix):]
	if len(fill) > 0 {
		fill[0] = f.Byte
		for k := 1; k < len(fill); k *= 2 {
			copy(fill[k:], fill[:k])
		}
	}
	if innermost {
		b.sum, b.sumOK = f.sum(), true
	}
	return nil
}

// sum returns what sum16 returns over the bytes f writes, without reading
// them: sum16 over Prefix, plus ⌊m/2⌋·(b<<8|b) for m fill bytes b, plus
// b<<8 for an odd one out. After an odd-length Prefix the first fill byte
// is the low half of the prefix's last word, so it counts as b alone and
// the rest of the fill starts on a word boundary.
func (f *Fill) sum() uint32 {
	s := uint64(sum16(0, f.Prefix))
	m, b := uint64(f.N), uint64(f.Byte)
	if len(f.Prefix)%2 == 1 && m > 0 {
		s += b
		m--
	}
	s += m / 2 * (b<<8 | b)
	if m%2 == 1 {
		s += b << 8
	}
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	return uint32(s)
}
