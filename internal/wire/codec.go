package wire

import (
	"encoding/binary"
	"fmt"
	"time"

	"cxfs/internal/types"
)

// Frame format (little endian):
//
//	u32 payload length
//	payload: tagged fields as laid out by appendBody
//
// The codec is total over the Msg struct: it encodes every field that can
// be non-zero for the message's type, and Size(m) == len(Encode(m)) for
// every message that passes Validate. Decode(Encode(m)) == m for all valid
// messages (tested with testing/quick). The simulated network charges
// transfer time using Size.
//
// Strings carry a u16 length prefix and batches a u16 count, so a name of
// 64KiB or a batch of 65536 entries cannot be represented. Validate (run
// by Encode and EncodeTo) rejects such messages instead of silently
// wrapping the prefix around.

// Codec limits implied by the u16 length/count prefixes.
const (
	// MaxString bounds every length-prefixed string field (names, row
	// keys, error text).
	MaxString = 1<<16 - 1
	// MaxBatch bounds every batched repeated field (Ops, Enforce, Votes,
	// Decisions, Rows, Keys).
	MaxBatch = 1<<16 - 1
)

// Validate reports whether m fits the codec's length prefixes. Encode and
// EncodeTo call it; protocol layers can call it early to reject oversized
// requests at the edge instead of at serialization time.
func Validate(m *Msg) error {
	if len(m.Sub.Name) > MaxString {
		return fmt.Errorf("wire: sub-op name of %d bytes exceeds %d", len(m.Sub.Name), MaxString)
	}
	if len(m.FullOp.Name) > MaxString {
		return fmt.Errorf("wire: op name of %d bytes exceeds %d", len(m.FullOp.Name), MaxString)
	}
	if len(m.FullOp.NewName) > MaxString {
		return fmt.Errorf("wire: op new-name of %d bytes exceeds %d", len(m.FullOp.NewName), MaxString)
	}
	if len(m.Err) > MaxString {
		return fmt.Errorf("wire: error text of %d bytes exceeds %d", len(m.Err), MaxString)
	}
	if len(m.Path) > MaxString {
		return fmt.Errorf("wire: lookup path of %d bytes exceeds %d", len(m.Path), MaxString)
	}
	if len(m.Ops) > MaxBatch {
		return fmt.Errorf("wire: %d ops exceed batch limit %d", len(m.Ops), MaxBatch)
	}
	if len(m.Enforce) > MaxBatch {
		return fmt.Errorf("wire: %d enforce entries exceed batch limit %d", len(m.Enforce), MaxBatch)
	}
	if len(m.Votes) > MaxBatch {
		return fmt.Errorf("wire: %d votes exceed batch limit %d", len(m.Votes), MaxBatch)
	}
	if len(m.Decisions) > MaxBatch {
		return fmt.Errorf("wire: %d decisions exceed batch limit %d", len(m.Decisions), MaxBatch)
	}
	if len(m.Rows) > MaxBatch {
		return fmt.Errorf("wire: %d rows exceed batch limit %d", len(m.Rows), MaxBatch)
	}
	if len(m.Keys) > MaxBatch {
		return fmt.Errorf("wire: %d keys exceed batch limit %d", len(m.Keys), MaxBatch)
	}
	for i := range m.Rows {
		if len(m.Rows[i].Key) > MaxString {
			return fmt.Errorf("wire: row key of %d bytes exceeds %d", len(m.Rows[i].Key), MaxString)
		}
	}
	for i := range m.Keys {
		if len(m.Keys[i]) > MaxString {
			return fmt.Errorf("wire: key of %d bytes exceeds %d", len(m.Keys[i]), MaxString)
		}
	}
	return nil
}

type encoder struct{ b []byte }

func (e *encoder) u8(v uint8) { e.b = append(e.b, v) }
func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) str(s string) {
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
}
func (e *encoder) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}
func (e *encoder) opID(id types.OpID) {
	e.u32(uint32(id.Proc.Client))
	e.u32(uint32(id.Proc.Index))
	e.u64(id.Seq)
}
func (e *encoder) procID(id types.ProcID) {
	e.u32(uint32(id.Client))
	e.u32(uint32(id.Index))
}
func (e *encoder) subOp(s types.SubOp) {
	e.opID(s.Op)
	e.u8(uint8(s.Kind))
	e.u8(uint8(s.Role))
	e.u8(uint8(s.Action))
	e.u64(uint64(s.Parent))
	e.str(s.Name)
	e.u64(uint64(s.Ino))
	e.u8(uint8(s.Type))
}
func (e *encoder) op(o types.Op) {
	e.opID(o.ID)
	e.u8(uint8(o.Kind))
	e.u64(uint64(o.Parent))
	e.str(o.Name)
	e.u64(uint64(o.Ino))
	e.u8(uint8(o.Type))
	e.u64(uint64(o.NewParent))
	e.str(o.NewName)
}
func (e *encoder) inode(in types.Inode) {
	e.u64(uint64(in.Ino))
	e.u8(uint8(in.Type))
	e.u32(in.Nlink)
	e.u64(in.Size)
	e.u64(in.Ctime)
	e.u64(in.Mtime)
}

// zeroField backs the error-path reads of a failed decoder: once the first
// field fails, every later fixed-width read returns a view of this shared
// zero buffer instead of allocating. Callers only ever read from it.
var zeroField [8]byte

type decoder struct {
	b   []byte
	pos int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated %s at %d", what, d.pos)
	}
}
func (d *decoder) take(n int) []byte {
	if d.err == nil && d.pos+n <= len(d.b) {
		v := d.b[d.pos : d.pos+n]
		d.pos += n
		return v
	}
	d.fail("field")
	if n <= len(zeroField) {
		return zeroField[:n]
	}
	return nil
}
func (d *decoder) u8() uint8     { return d.take(1)[0] }
func (d *decoder) boolean() bool { return d.u8() != 0 }
func (d *decoder) u16() uint16   { return binary.LittleEndian.Uint16(d.take(2)) }
func (d *decoder) u32() uint32   { return binary.LittleEndian.Uint32(d.take(4)) }
func (d *decoder) u64() uint64   { return binary.LittleEndian.Uint64(d.take(8)) }
func (d *decoder) str() string {
	n := int(d.u16())
	if d.err != nil || d.pos+n > len(d.b) {
		d.fail("string")
		return ""
	}
	s := string(d.b[d.pos : d.pos+n])
	d.pos += n
	return s
}
func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || d.pos+n > len(d.b) {
		d.fail("bytes")
		return nil
	}
	v := make([]byte, n)
	copy(v, d.b[d.pos:d.pos+n])
	d.pos += n
	return v
}

// count reads a batch count and sanity-checks it against the bytes left:
// each element encodes to at least elemMin bytes, so a count that cannot
// fit is a corrupt frame. Failing here keeps a flipped count byte from
// allocating a 65535-element slice before the per-element reads fail.
func (d *decoder) count(elemMin int) int {
	n := int(d.u16())
	if d.err != nil {
		return 0
	}
	if n*elemMin > len(d.b)-d.pos {
		d.fail("batch count")
		return 0
	}
	return n
}

func (d *decoder) opID() types.OpID {
	var id types.OpID
	id.Proc.Client = types.NodeID(d.u32())
	id.Proc.Index = int32(d.u32())
	id.Seq = d.u64()
	return id
}
func (d *decoder) procID() types.ProcID {
	var id types.ProcID
	id.Client = types.NodeID(d.u32())
	id.Index = int32(d.u32())
	return id
}
func (d *decoder) subOp() types.SubOp {
	var s types.SubOp
	s.Op = d.opID()
	s.Kind = types.OpKind(d.u8())
	s.Role = types.Role(d.u8())
	s.Action = types.SubOpAction(d.u8())
	s.Parent = types.InodeID(d.u64())
	s.Name = d.str()
	s.Ino = types.InodeID(d.u64())
	s.Type = types.FileType(d.u8())
	return s
}
func (d *decoder) op() types.Op {
	var o types.Op
	o.ID = d.opID()
	o.Kind = types.OpKind(d.u8())
	o.Parent = types.InodeID(d.u64())
	o.Name = d.str()
	o.Ino = types.InodeID(d.u64())
	o.Type = types.FileType(d.u8())
	o.NewParent = types.InodeID(d.u64())
	o.NewName = d.str()
	return o
}
func (d *decoder) inode() types.Inode {
	var in types.Inode
	in.Ino = types.InodeID(d.u64())
	in.Type = types.FileType(d.u8())
	in.Nlink = d.u32()
	in.Size = d.u64()
	in.Ctime = d.u64()
	in.Mtime = d.u64()
	return in
}

// appendMsg appends m's framed encoding to buf. Callers have validated m.
func appendMsg(buf []byte, m *Msg) []byte {
	start := len(buf)
	e := encoder{b: append(buf, 0, 0, 0, 0)}
	e.u8(uint8(m.Type))
	e.u32(uint32(m.From))
	e.u32(uint32(m.To))
	e.opID(m.Op)
	e.procID(m.ReplyProc)
	e.subOp(m.Sub)
	e.op(m.FullOp)
	e.u32(uint32(m.Peer))
	e.boolean(m.OK)
	e.str(m.Err)
	e.opID(m.Hint)
	e.u32(m.Epoch)
	e.inode(m.Attr)
	e.u64(uint64(m.Dir))
	e.str(m.Path)
	e.u64(m.LeaseEpoch)
	e.u64(uint64(m.LeaseTTL))
	e.u16(uint16(len(m.Ops)))
	for _, op := range m.Ops {
		e.opID(op)
	}
	e.u16(uint16(len(m.Enforce)))
	for _, op := range m.Enforce {
		e.opID(op)
	}
	e.u16(uint16(len(m.Votes)))
	for _, v := range m.Votes {
		e.opID(v.Op)
		e.boolean(v.OK)
	}
	e.u16(uint16(len(m.Decisions)))
	for _, dc := range m.Decisions {
		e.opID(dc.Op)
		e.boolean(dc.Commit)
	}
	e.u16(uint16(len(m.Rows)))
	for _, r := range m.Rows {
		e.str(r.Key)
		e.bytes(r.Val)
	}
	e.u16(uint16(len(m.Keys)))
	for _, k := range m.Keys {
		e.str(k)
	}
	binary.LittleEndian.PutUint32(e.b[start:start+4], uint32(len(e.b)-start-4))
	return e.b
}

// Encode serializes m with its length frame into a fresh buffer. It fails
// if any string or batch field exceeds the codec's u16 prefixes.
func Encode(m *Msg) ([]byte, error) {
	if err := Validate(m); err != nil {
		return nil, err
	}
	return appendMsg(make([]byte, 0, Size(m)), m), nil
}

// EncodeTo appends m's framed encoding to buf and returns the extended
// slice, allocating only if buf lacks capacity, so a caller that reuses its
// buffer encodes allocation-free in steady state.
func EncodeTo(buf []byte, m *Msg) ([]byte, error) {
	if err := Validate(m); err != nil {
		return buf, err
	}
	return appendMsg(buf, m), nil
}

// Decode parses one framed message.
func Decode(buf []byte) (Msg, error) {
	if len(buf) < 4 {
		return Msg{}, fmt.Errorf("wire: frame too short")
	}
	if int(binary.LittleEndian.Uint32(buf[0:4])) != len(buf)-4 {
		return Msg{}, fmt.Errorf("wire: frame length mismatch")
	}
	return DecodeBody(buf[4:])
}

// DecodeBody parses a message payload without its 4-byte length frame.
// Stream transports that have already consumed the frame header decode
// the payload in place instead of re-assembling the full frame. The
// returned Msg shares no memory with body: strings and byte fields are
// copied out, so callers may reuse the buffer for the next frame.
func DecodeBody(body []byte) (Msg, error) {
	var m Msg
	d := decoder{b: body}
	m.Type = MsgType(d.u8())
	m.From = types.NodeID(d.u32())
	m.To = types.NodeID(d.u32())
	m.Op = d.opID()
	m.ReplyProc = d.procID()
	m.Sub = d.subOp()
	m.FullOp = d.op()
	m.Peer = types.NodeID(d.u32())
	m.OK = d.boolean()
	m.Err = d.str()
	m.Hint = d.opID()
	m.Epoch = d.u32()
	m.Attr = d.inode()
	m.Dir = types.InodeID(d.u64())
	m.Path = d.str()
	m.LeaseEpoch = d.u64()
	m.LeaseTTL = time.Duration(d.u64())
	if n := d.count(16); n > 0 {
		m.Ops = make([]types.OpID, n)
		for i := range m.Ops {
			m.Ops[i] = d.opID()
		}
	}
	if n := d.count(16); n > 0 {
		m.Enforce = make([]types.OpID, n)
		for i := range m.Enforce {
			m.Enforce[i] = d.opID()
		}
	}
	if n := d.count(17); n > 0 {
		m.Votes = make([]Vote, n)
		for i := range m.Votes {
			m.Votes[i].Op = d.opID()
			m.Votes[i].OK = d.boolean()
		}
	}
	if n := d.count(17); n > 0 {
		m.Decisions = make([]Decision, n)
		for i := range m.Decisions {
			m.Decisions[i].Op = d.opID()
			m.Decisions[i].Commit = d.boolean()
		}
	}
	if n := d.count(6); n > 0 { // min row: empty key (2) + empty val (4)
		m.Rows = make([]types.RowImage, n)
		for i := range m.Rows {
			m.Rows[i].Key = d.str()
			m.Rows[i].Val = d.bytes()
		}
	}
	if n := d.count(2); n > 0 { // min key: empty string (2)
		m.Keys = make([]string, n)
		for i := range m.Keys {
			m.Keys[i] = d.str()
		}
	}
	if d.err != nil {
		return m, d.err
	}
	if d.pos != len(body) {
		return m, fmt.Errorf("wire: %d trailing bytes", len(body)-d.pos)
	}
	return m, nil
}

// Size returns the encoded length of m including the frame header. The
// simulated network charges transfer time against this.
func Size(m *Msg) int64 {
	// Fixed part.
	n := 4 + // frame
		1 + 4 + 4 + // type, from, to
		16 + // op id
		8 + // reply proc
		(16 + 1 + 1 + 1 + 8 + 2 + len(m.Sub.Name) + 8 + 1) + // sub-op
		(16 + 1 + 8 + 2 + len(m.FullOp.Name) + 8 + 1 + 8 + 2 + len(m.FullOp.NewName)) + // full op
		4 + 1 + // peer, ok
		2 + len(m.Err) +
		16 + 4 + // hint, epoch
		37 + // inode
		8 + 2 + len(m.Path) + 8 + 8 + // dir, path, lease epoch, lease ttl
		2 + len(m.Ops)*16 +
		2 + len(m.Enforce)*16 +
		2 + len(m.Votes)*17 +
		2 + len(m.Decisions)*17 +
		2 + 2 // rows, keys counts
	for _, r := range m.Rows {
		n += 2 + len(r.Key) + 4 + len(r.Val)
	}
	for _, k := range m.Keys {
		n += 2 + len(k)
	}
	return int64(n)
}
