package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"cxfs/internal/types"
)

// Log record wire format (little endian):
//
//	u16  total length (excluding this field)
//	u8   record type
//	u8   role
//	u8   flags (bit0 = OK, bit1 = has-peer)
//	i32  op client
//	i32  op proc index
//	u64  op seq
//	i32  peer node (when has-peer)
//	-- Result records only --
//	u8   sub action
//	u8   sub op kind
//	u64  parent inode
//	u64  target inode
//	u8   file type
//	u16  name length, then name bytes
//	u8   before-image count, then images (u16 key len, key text, u32 val len+1, val)
//	u8   after-image count, then images
//	-- all records --
//	u32  CRC-32C (Castagnoli) checksum of everything after the length field
//
// The sizes matter twice: they are the disk-write sizes that the cost model
// charges, and they are the paper's "valid-records size" unit (Figure 7b,
// Table V).

// castagnoli is the checksum's polynomial table: CRC-32C, which the
// hash/crc32 package computes with the CPU's CRC instruction where there is
// one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	headerSize   = 2 + 1 + 1 + 1 + 4 + 4 + 8
	resultFixed  = 1 + 1 + 8 + 8 + 1 + 2
	checksumSize = 4
)

// encodedSize returns the full on-disk size of rec.
func encodedSize(rec *Record) int64 {
	n := headerSize + checksumSize
	if rec.HasPeer {
		n += 4
	}
	if rec.Type == RecResult {
		n += resultFixed + len(rec.Sub.Name)
		n += 2 // image counts
		for i := range rec.Pre {
			n += imageSize(rec.Pre[i].Key.TextLen(), rec.Pre[i].Val.Len())
		}
		for i := range rec.Post {
			n += imageSize(rec.Post[i].Key.TextLen(), rec.Post[i].Val.Len())
		}
		for _, img := range rec.Before {
			n += imageSize(len(img.Key), len(img.Val))
		}
		for _, img := range rec.After {
			n += imageSize(len(img.Key), len(img.Val))
		}
	}
	return int64(n)
}

// imageSize is the encoded size of an image whose key's text is keyLen bytes
// and whose value is valLen.
func imageSize(keyLen, valLen int) int { return 2 + keyLen + 4 + valLen }

// putImages appends an image list, rows then texts: count byte, then per
// image a u16 key length, the key's text, a u32 value length+1 (0 encodes
// the absent image), and the value bytes.
func putImages(buf []byte, rows []types.Row, texts []types.RowImage) []byte {
	buf = append(buf, byte(len(rows)+len(texts)))
	for i := range rows {
		img := &rows[i]
		buf = binary.LittleEndian.AppendUint16(buf, uint16(img.Key.TextLen()))
		buf = putVal(img.Key.AppendText(buf), img.Val.Bytes())
	}
	for _, img := range texts {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(img.Key)))
		buf = putVal(append(buf, img.Key...), img.Val)
	}
	return buf
}

// putVal appends an image's value: its length+1 (0: val is nil, absent) and
// its bytes.
func putVal(buf, val []byte) []byte {
	if val == nil {
		return binary.LittleEndian.AppendUint32(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val))+1)
	return append(buf, val...)
}

// takeImages parses an image list written by putImages.
func takeImages(buf []byte, pos int) ([]types.Row, int, error) {
	if pos >= len(buf) {
		return nil, pos, fmt.Errorf("wal: image count truncated")
	}
	n := int(buf[pos])
	pos++
	if n == 0 {
		return nil, pos, nil
	}
	imgs := make([]types.Row, 0, n)
	for i := 0; i < n; i++ {
		if pos+2 > len(buf) {
			return nil, pos, fmt.Errorf("wal: image key length truncated")
		}
		kl := int(binary.LittleEndian.Uint16(buf[pos:]))
		pos += 2
		if pos+kl+4 > len(buf) {
			return nil, pos, fmt.Errorf("wal: image key truncated")
		}
		key, err := types.ParseObjKey(string(buf[pos : pos+kl]))
		if err != nil {
			return nil, pos, fmt.Errorf("wal: image key: %w", err)
		}
		pos += kl
		vl := int(binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
		img := types.Row{Key: key}
		if vl > 0 {
			vl--
			if pos+vl > len(buf) {
				return nil, pos, fmt.Errorf("wal: image value truncated")
			}
			var ok bool
			if img.Val, ok = types.ValOf(buf[pos : pos+vl]); !ok {
				return nil, pos, fmt.Errorf("wal: image value of %d bytes exceeds %d", vl, types.RowVal)
			}
			pos += vl
		}
		imgs = append(imgs, img)
	}
	return imgs, pos, nil
}

// encode serializes rec into a new buffer.
func encode(rec *Record) []byte {
	return appendRecord(make([]byte, 0, encodedSize(rec)), rec)
}

// appendRecord appends the encoding of rec, encodedSize(rec) bytes, to buf.
// The log encodes into room it already holds (its image, a window's buffer),
// so this allocates only when buf must grow.
func appendRecord(buf []byte, rec *Record) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(encodedSize(rec)-2))
	buf = append(buf, byte(rec.Type), byte(rec.Role))
	var flags byte
	if rec.OK {
		flags |= 1
	}
	if rec.HasPeer {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.Op.Proc.Client))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.Op.Proc.Index))
	buf = binary.LittleEndian.AppendUint64(buf, rec.Op.Seq)
	if rec.HasPeer {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.Peer))
	}
	if rec.Type == RecResult {
		buf = append(buf, byte(rec.Sub.Action), byte(rec.Sub.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.Sub.Parent))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.Sub.Ino))
		buf = append(buf, byte(rec.Sub.Type))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(rec.Sub.Name)))
		buf = append(buf, rec.Sub.Name...)
		buf = putImages(buf, rec.Pre, rec.Before)
		buf = putImages(buf, rec.Post, rec.After)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start+2:], castagnoli))
}

// decode parses one record, verifying length and checksum.
func decode(buf []byte) (Record, error) {
	var rec Record
	if len(buf) < headerSize+checksumSize {
		return rec, fmt.Errorf("wal: record too short (%d bytes)", len(buf))
	}
	total := int(binary.LittleEndian.Uint16(buf[0:2])) + 2
	if total != len(buf) {
		return rec, fmt.Errorf("wal: length mismatch: header says %d, have %d", total, len(buf))
	}
	body := buf[2 : len(buf)-checksumSize]
	want := binary.LittleEndian.Uint32(buf[len(buf)-checksumSize:])
	if crc32.Checksum(body, castagnoli) != want {
		return rec, fmt.Errorf("wal: checksum mismatch")
	}
	rec.Type = RecType(buf[2])
	rec.Role = types.Role(buf[3])
	rec.OK = buf[4]&1 != 0
	rec.HasPeer = buf[4]&2 != 0
	rec.Op.Proc.Client = types.NodeID(binary.LittleEndian.Uint32(buf[5:9]))
	rec.Op.Proc.Index = int32(binary.LittleEndian.Uint32(buf[9:13]))
	rec.Op.Seq = binary.LittleEndian.Uint64(buf[13:21])
	p := 21
	if rec.HasPeer {
		if len(buf) < p+4+checksumSize {
			return rec, fmt.Errorf("wal: peer truncated")
		}
		rec.Peer = types.NodeID(binary.LittleEndian.Uint32(buf[p : p+4]))
		p += 4
	}
	if rec.Type == RecResult {
		if len(buf) < p+resultFixed+checksumSize {
			return rec, fmt.Errorf("wal: result record truncated")
		}
		rec.Sub.Action = types.SubOpAction(buf[p])
		rec.Sub.Kind = types.OpKind(buf[p+1])
		rec.Sub.Parent = types.InodeID(binary.LittleEndian.Uint64(buf[p+2 : p+10]))
		rec.Sub.Ino = types.InodeID(binary.LittleEndian.Uint64(buf[p+10 : p+18]))
		rec.Sub.Type = types.FileType(buf[p+18])
		nameLen := int(binary.LittleEndian.Uint16(buf[p+19 : p+21]))
		nameStart := p + 21
		if len(buf) < nameStart+nameLen+checksumSize {
			return rec, fmt.Errorf("wal: name truncated")
		}
		rec.Sub.Name = string(buf[nameStart : nameStart+nameLen])
		rec.Sub.Op = rec.Op
		rec.Sub.Role = rec.Role
		pos := nameStart + nameLen
		var err error
		if rec.Pre, pos, err = takeImages(buf, pos); err != nil {
			return rec, err
		}
		if rec.Post, pos, err = takeImages(buf, pos); err != nil {
			return rec, err
		}
		if pos != len(buf)-checksumSize {
			return rec, fmt.Errorf("wal: %d stray bytes before checksum", len(buf)-checksumSize-pos)
		}
	}
	return rec, nil
}
