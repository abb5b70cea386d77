package analysis

import (
	"cmp"
	"slices"

	"v6lab/internal/dnsmsg"
)

// symtab interns the DNS and TLS server names an observer reads off the
// wire into small integer IDs. It is a cache, not a filter: any name the
// wire carries gets an ID, registered with the world or not. Each raw
// spelling is one string and takes the ID of its canonical name, so
// dnsmsg.CanonicalName runs once per spelling and a repeat costs one map
// lookup and no allocation.
type symtab struct {
	ids   map[string]sym // spelling -> itself and its ID
	names []string       // canonical name by ID
}

type sym struct {
	s  string
	id uint32
}

// Intern implements dnsmsg.Interner.
func (t *symtab) Intern(b []byte) string { return t.lookup(b).s }

// lookup returns the spelling in b and its ID, adding both on first sight.
func (t *symtab) lookup(b []byte) sym {
	if r, ok := t.ids[string(b)]; ok {
		return r
	}
	r := sym{string(b), uint32(len(t.names))}
	if c := dnsmsg.CanonicalName(r.s); c != r.s {
		r.id = t.lookup([]byte(c)).id
	} else {
		t.names = append(t.names, r.s)
	}
	t.ids[r.s] = r
	return r
}

// id returns the ID of a decoded name.
func (t *symtab) id(s string) uint32 {
	if r, ok := t.ids[s]; ok {
		return r.id
	}
	return t.lookup([]byte(s)).id // the root, which skips the Interner
}

// key is a name ID with an RR type and a transport family, packed so that
// a sorted set groups by name. DNS questions and positive responses are
// keys; an Internet contact is a key of type 0.
type key uint64

func mkkey(id uint32, t dnsmsg.Type, v6 bool) key {
	k := key(id)<<17 | key(t)<<1
	if v6 {
		k |= 1
	}
	return k
}

func (k key) name() uint32     { return uint32(k >> 17) }
func (k key) typ() dnsmsg.Type { return dnsmsg.Type(k >> 1) }
func (k key) v6() bool         { return k&1 != 0 }

// insert adds v to the sorted set s.
func insert[T cmp.Ordered](s []T, v T) []T {
	i, ok := slices.BinarySearch(s, v)
	if ok {
		return s
	}
	return slices.Insert(s, i, v)
}

func has[T cmp.Ordered](s []T, v T) bool {
	_, ok := slices.BinarySearch(s, v)
	return ok
}

// union returns the sorted union of two sorted sets (one itself when the
// other is empty).
func union[T cmp.Ordered](a, b []T) []T {
	return unionFunc(a, b, cmp.Compare[T], func(x, _ T) T { return x })
}

// unionFunc is union under cmp, join merging the elements both sets hold.
func unionFunc[T any](a, b []T, cmp func(T, T) int, join func(x, y T) T) []T {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]T, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch c := cmp(a[0], b[0]); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, join(a[0], b[0])), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// sorted sorts s and drops its duplicates.
func sorted[T cmp.Ordered](s []T) []T {
	slices.Sort(s)
	return slices.Compact(s)
}

// countNames counts the distinct names among the keys of the sorted set
// that satisfy pred.
func countNames(set []key, pred func(key) bool) int {
	n, last := 0, uint32(0)
	for _, k := range set {
		if pred(k) && (n == 0 || k.name() != last) {
			n++
			last = k.name()
		}
	}
	return n
}
