package types

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// MaxName is the longest entry name an operation may carry, in bytes: POSIX
// NAME_MAX. A longer name is refused before it is sent (ErrNameTooLong), so
// no server ever logs, stores or ships one.
const MaxName = 255

// RowVal is the longest value a database row holds, in bytes. A row's value
// lives inline in its store record and in every image of it; the namespace's
// largest row, an inode, is 37 bytes.
const RowVal = 40

// Val is a row's value, by value: up to RowVal bytes, or absent (no row).
// The zero Val is absent. Bytes past the length are always zero, so == tells
// two values apart.
type Val struct {
	n uint8 // the length plus one; 0: absent
	b [RowVal]byte
}

// ValOf returns b as a present value (nil b: present and empty), and false if
// b is longer than RowVal.
func ValOf(b []byte) (Val, bool) {
	var v Val
	if len(b) > RowVal {
		return v, false
	}
	v.n = uint8(copy(v.b[:], b)) + 1
	return v, true
}

// Present reports whether the value is there (the row exists).
func (v Val) Present() bool { return v.n != 0 }

// Len returns the value's length in bytes (0 when absent).
func (v Val) Len() int { return max(int(v.n)-1, 0) }

// Bytes returns v's own bytes, nil when absent.
func (v *Val) Bytes() []byte {
	if v.n == 0 {
		return nil
	}
	return v.b[:v.n-1]
}

// Row is a point-in-time image of one database row, by value: its key and
// its value, absent when the row is not there. Result-Records carry the
// images of the row a sub-operation wrote, before and after, so crash
// recovery can redo a committed operation or undo an aborted one
// idempotently by installing images instead of re-running non-idempotent
// logic; an undo holds the before-image, and a CE migration ships rows. An
// image is a copy: it never changes with the row. The zero Row (Key.Kind 0)
// is no image.
type Row struct {
	Key ObjKey
	Val Val
}

// RowImage is a row image in text form: the key's text (ObjKey.AppendText)
// and the value's bytes, nil when the row is absent. It is for a producer
// that holds a row's key only as text; the log writes one byte for byte as
// it writes the Row of the same key and value.
type RowImage struct {
	Key string
	Val []byte // nil = row absent
}

// DirEntry is one readdir result: an entry's name and the inode it names.
type DirEntry struct {
	Name string
	Ino  InodeID
}

// The text form of a key is how a row is named wherever its bytes are
// counted or written — a log record's images, a migrated row on the wire, a
// row's footprint in its leaf page. A dentry's is the letter d, a slash, the
// directory's number, a slash and the name verbatim (slashes and all); an
// inode's is the letter i, a slash and its number; numbers are in decimal.

// AppendText appends the key's text form to buf. It panics on a key of
// neither kind.
func (k ObjKey) AppendText(buf []byte) []byte {
	switch k.Kind {
	case ObjDentry:
		buf = append(buf, 'd', '/')
		buf = strconv.AppendUint(buf, uint64(k.Dir), 10)
		buf = append(buf, '/')
		return append(buf, k.Name...)
	case ObjInode:
		buf = append(buf, 'i', '/')
		return strconv.AppendUint(buf, uint64(k.Ino), 10)
	}
	panic(fmt.Sprintf("types: text of invalid key %v", k))
}

// TextLen returns the length of the key's text form without building it.
func (k ObjKey) TextLen() int {
	switch k.Kind {
	case ObjDentry:
		return 3 + decimalLen(uint64(k.Dir)) + len(k.Name)
	case ObjInode:
		return 2 + decimalLen(uint64(k.Ino))
	}
	panic(fmt.Sprintf("types: text of invalid key %v", k))
}

// decimalLen returns the number of decimal digits of u: one more than
// log10(u), from log2(u) by 1233/4096 ≈ log10(2), which is low by at most one.
func decimalLen(u uint64) int {
	t := bits.Len64(u) * 1233 >> 12
	if u >= pow10[t] {
		t++
	}
	return max(t, 1)
}

// pow10[i] is 10 to the i.
var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// ParseObjKey parses a key's text form, exactly as AppendText writes it: a
// dentry's name is everything after the second slash, and a number with a
// sign or a leading zero is refused, so every key has one text.
func ParseObjKey(text string) (ObjKey, error) {
	kind, rest, _ := strings.Cut(text, "/")
	switch kind {
	case "d":
		dir, name, ok := strings.Cut(rest, "/")
		if n, err := parseDecimal(dir); ok && err == nil {
			return DentryKey(InodeID(n), name), nil
		}
	case "i":
		if n, err := parseDecimal(rest); err == nil {
			return InodeKey(InodeID(n)), nil
		}
	}
	return ObjKey{}, fmt.Errorf("types: %q is no row key", text)
}

// parseDecimal parses a uint64 written the way strconv.AppendUint writes it.
func parseDecimal(s string) (uint64, error) {
	n, err := strconv.ParseUint(s, 10, 64)
	if err == nil && decimalLen(n) != len(s) {
		err = fmt.Errorf("types: %q is not canonical", s)
	}
	return n, err
}
