package packet

import (
	"bytes"
	"testing"
)

// TestArenaCopiesAndStaysStable: frames are independent of the bytes they
// were built from and survive later frames, including chunk rollover.
func TestArenaCopiesAndStaysStable(t *testing.T) {
	a := &Arena{ChunkSize: 64}
	src := Raw{1, 2, 3, 4}
	got, err := a.Serialize(src)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 99
	if got[0] != 1 {
		t.Error("Serialize aliased the source slice")
	}
	// Force several chunk rollovers; the first frame must not move.
	var later [][]byte
	for i := 0; i < 50; i++ {
		f, err := a.Serialize(Raw(bytes.Repeat([]byte{byte(i)}, 20)))
		if err != nil {
			t.Fatal(err)
		}
		later = append(later, f)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Errorf("early frame corrupted after rollover: %v", got)
	}
	for i, l := range later {
		if !bytes.Equal(l, bytes.Repeat([]byte{byte(i)}, 20)) {
			t.Fatalf("frame %d corrupted: %v", i, l)
		}
	}
}

// TestArenaCopyCapClipped: appending to a returned frame must not scribble
// over the frame built next to it in the same chunk.
func TestArenaCopyCapClipped(t *testing.T) {
	a := &Arena{}
	first, _ := a.Serialize(Raw{1, 2})
	second, _ := a.Serialize(Raw{3, 4})
	third, _ := a.Serialize(Raw{5, 6})
	_ = append(second, 0xee) // must reallocate, not overwrite first
	if first[0] != 1 || first[1] != 2 || third[0] != 5 || third[1] != 6 {
		t.Errorf("append through second frame corrupted a neighbour: %v %v", first, third)
	}
}

// TestArenaOversizeBlob: frames larger than the chunk size get their own
// chunk instead of failing.
func TestArenaOversizeBlob(t *testing.T) {
	a := &Arena{ChunkSize: 8}
	big := bytes.Repeat([]byte{0xaa}, 100)
	got, err := a.Serialize(Raw(big))
	if err != nil || !bytes.Equal(got, big) {
		t.Errorf("oversize frame mangled: %v", err)
	}
	if next, _ := a.Serialize(Raw{1}); next[0] != 1 || !bytes.Equal(got, big) {
		t.Error("frame after oversize frame failed")
	}
}

// TestArenaSpillCopiesOnlyTheBuiltPart: a frame that outgrows its chunk
// moves to the next one with its inner layers intact, the frames already
// built stay put, and the chunk it left keeps serving later frames.
func TestArenaSpillCopiesOnlyTheBuiltPart(t *testing.T) {
	a := &Arena{ChunkSize: 64}
	first, _ := a.Serialize(Raw(bytes.Repeat([]byte{1}, 40)))
	eth := &Ethernet{Dst: MAC{1, 2, 3, 4, 5, 6}, Src: MAC{6, 5, 4, 3, 2, 1}, Type: EtherTypeIPv4}
	// 20 payload bytes fit below first; the Ethernet header does not.
	spilled, err := a.Serialize(eth, Raw(bytes.Repeat([]byte{2}, 20)))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Serialize(eth, Raw(bytes.Repeat([]byte{2}, 20)))
	if !bytes.Equal(spilled, want) || !bytes.Equal(first, bytes.Repeat([]byte{1}, 40)) {
		t.Fatalf("spill corrupted a frame:\n got %x\nwant %x", spilled, want)
	}
	if cap(spilled) != len(spilled) {
		t.Errorf("spilled frame has cap %d beyond its %d bytes", cap(spilled), len(spilled))
	}
	if a.Chunks() != 2 {
		t.Errorf("arena holds %d chunks, want 2", a.Chunks())
	}
}

// TestSerializeIntoReuse: repeated SerializeInto on one buffer yields the
// same bytes as the allocating Serialize.
func TestSerializeIntoReuse(t *testing.T) {
	want, err := Serialize(
		&Ethernet{Dst: MAC{1, 2, 3, 4, 5, 6}, Src: MAC{6, 5, 4, 3, 2, 1}, Type: EtherTypeIPv4},
		Raw([]byte{0xde, 0xad, 0xbe, 0xef}),
	)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuffer(128)
	for i := 0; i < 3; i++ {
		got, err := SerializeInto(b,
			&Ethernet{Dst: MAC{1, 2, 3, 4, 5, 6}, Src: MAC{6, 5, 4, 3, 2, 1}, Type: EtherTypeIPv4},
			Raw([]byte{0xde, 0xad, 0xbe, 0xef}),
		)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: SerializeInto = %x, Serialize = %x", i, got, want)
		}
	}
}
