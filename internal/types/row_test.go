package types

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// appendRowBefore is the namespace's row-key builder as it was when rows
// were keyed by text: the key text a log record's images, a migrated row and
// a row's page footprint have always carried.
func appendRowBefore(buf []byte, k ObjKey) []byte {
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
	panic("namespace: RowKey on invalid ObjKey")
}

// TestObjKeyTextMatchesRowKey pins the key text to the builder rows were
// keyed by before, and to the Sprintf format before that: log bytes, message
// sizes and page placement depend on it byte for byte. Every text parses back
// to its key.
func TestObjKeyTextMatchesRowKey(t *testing.T) {
	keys := []ObjKey{
		DentryKey(0, ""), DentryKey(1, "f"), DentryKey(RootInode, "a b/c"), DentryKey(7, "/"),
		DentryKey(12, "dir/with/slashes and spaces "), DentryKey(1<<63+7, "x"),
		DentryKey(1<<64-1, strings.Repeat("long-name-", 8)), // over 40 bytes
		DentryKey(3, strings.Repeat("n", MaxName)),
		InodeKey(0), InodeKey(1), InodeKey(10), InodeKey(1 << 40), InodeKey(1<<64 - 1),
	}
	for _, k := range keys {
		old := string(appendRowBefore(nil, k))
		sprintf := fmt.Sprintf("i/%d", uint64(k.Ino))
		if k.Kind == ObjDentry {
			sprintf = fmt.Sprintf("d/%d/%s", uint64(k.Dir), k.Name)
		}
		text := string(k.AppendText([]byte("prefix")))[len("prefix"):]
		if text != old || text != sprintf || k.TextLen() != len(old) {
			t.Errorf("%v: text %q (length %d), want %q", k, text, k.TextLen(), old)
		}
		if back, err := ParseObjKey(text); err != nil || back != k {
			t.Errorf("ParseObjKey(%q) = %v, %v; want %v", text, back, err, k)
		}
	}
}

// A number's text length is counted without writing it, at every power of
// ten and either side of it.
func TestDecimalLen(t *testing.T) {
	for p := uint64(1); ; p *= 10 {
		for _, u := range []uint64{p - 1, p, p + 1} {
			if got, want := decimalLen(u), len(strconv.FormatUint(u, 10)); got != want {
				t.Errorf("decimalLen(%d) = %d, want %d", u, got, want)
			}
		}
		if p > (1<<64-1)/10 {
			break
		}
	}
	if got := decimalLen(1<<64 - 1); got != 20 {
		t.Errorf("decimalLen(max) = %d, want 20", got)
	}
}

// TestObjKeyTextBothKinds checks the two prefixes, that a key of neither kind
// has no text, and that text which AppendText never writes parses to no key.
func TestObjKeyTextBothKinds(t *testing.T) {
	if got := string(DentryKey(7, "f").AppendText(nil)); got != "d/7/f" {
		t.Errorf("dentry key text: %s", got)
	}
	if got := string(InodeKey(42).AppendText(nil)); got != "i/42" {
		t.Errorf("inode key text: %s", got)
	}
	for _, bad := range []string{"", "d", "d/", "d/1", "d//f", "d/01/f", "d/+1/f", "d/-1/f",
		"i/", "i/01", "i/x", "i/1/2", "x/1", "d/18446744073709551616/f", "I/1"} {
		if k, err := ParseObjKey(bad); err == nil {
			t.Errorf("ParseObjKey(%q) = %v, want an error", bad, k)
		}
	}
	for _, f := range []func(){
		func() { ObjKey{}.AppendText(nil) },
		func() { _ = ObjKey{Kind: 9}.TextLen() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a key of neither kind has text")
				}
			}()
			f()
		}()
	}
}

// TestObjKeyTextAllocatesNothing: a key's text is appended into room the
// caller holds, and measured without being built.
func TestObjKeyTextAllocatesNothing(t *testing.T) {
	var buf [64]byte
	k := DentryKey(12345, "file-0001")
	if a := testing.AllocsPerRun(200, func() {
		if len(k.AppendText(buf[:0])) != k.TextLen() || InodeKey(12345).TextLen() != 7 {
			t.Fatal("text length")
		}
	}); a != 0 {
		t.Errorf("a key's text allocates %.1f objects, want 0", a)
	}
}

// A value is held inline: present or absent, at most RowVal bytes, compared
// with ==, and a copy of what it was made from.
func TestValIsInline(t *testing.T) {
	var zero Val
	if zero.Present() || zero.Bytes() != nil || zero.Len() != 0 {
		t.Error("the zero Val is not absent")
	}
	empty, ok := ValOf(nil)
	if !ok || !empty.Present() || empty.Bytes() == nil || empty.Len() != 0 || empty == zero {
		t.Error("ValOf(nil) is not present and empty")
	}
	src := []byte("abc")
	v, _ := ValOf(src)
	src[0] = 'X'
	if string(v.Bytes()) != "abc" || v.Len() != 3 {
		t.Errorf("ValOf kept the caller's bytes: %q", v.Bytes())
	}
	long, _ := ValOf([]byte("abcdef"))
	w, _ := ValOf(long.Bytes()[:3])
	if w != v {
		t.Error("equal values made from different buffers compare unequal")
	}
	if _, ok := ValOf(make([]byte, RowVal)); !ok {
		t.Errorf("a %d-byte value refused", RowVal)
	}
	if _, ok := ValOf(make([]byte, RowVal+1)); ok {
		t.Errorf("a %d-byte value accepted", RowVal+1)
	}
}
