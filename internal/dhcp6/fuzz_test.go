package dhcp6

import (
	"reflect"
	"testing"
)

// FuzzDHCP6: Unmarshal never panics, and every decoded message that
// Marshal accepts decodes back to itself.
func FuzzDHCP6(f *testing.F) {
	for _, m := range []*Message{testSolicit(), testReply()} {
		wire, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		wire, err := m.Marshal()
		if err != nil {
			return
		}
		again, err := Unmarshal(wire)
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("Unmarshal(Marshal(m)) = %+v (%v), want %+v", again, err, m)
		}
	})
}
