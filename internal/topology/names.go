package topology

import (
	"strconv"
	"strings"
)

// names builds node names without fmt and without an allocation per name:
// each name is written after the last into a shared buffer and handed out
// as a substring of it. A buffer with too little room left for another
// name is left to the names already in it, and the next one is twice as
// large, up to 4 KB. Write a name with s and d, then take it with end:
//
//	nm.s("k").d(level).s("-").d(i).end() // "k2-7"
type names struct {
	b    strings.Builder
	from int // where the name being written starts
}

// s appends x to the name being written.
func (nm *names) s(x string) *names {
	nm.room()
	nm.b.WriteString(x)
	return nm
}

// d appends the decimal form of i to the name being written.
func (nm *names) d(i int) *names {
	nm.room()
	var digits [20]byte
	nm.b.Write(strconv.AppendInt(digits[:0], int64(i), 10))
	return nm
}

// end returns the name written since the last end.
func (nm *names) end() string {
	name := nm.b.String()[nm.from:]
	nm.from = nm.b.Len()
	return name
}

// room starts a new buffer before a name when the current one has less
// than 32 bytes left, so a name rarely outgrows its buffer (and one that
// does is still whole: the builder copies it along).
func (nm *names) room() {
	if nm.b.Len() != nm.from || nm.b.Cap()-nm.b.Len() >= 32 {
		return
	}
	size := min(max(2*nm.b.Cap(), 64), 4<<10)
	nm.b = strings.Builder{}
	nm.b.Grow(size)
	nm.from = 0
}
