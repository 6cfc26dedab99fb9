package wal

import (
	"encoding/binary"
	"fmt"
)

// Encode serializes rec exactly as it is laid out on disk. Exported together
// with ScanBytes so durability tests can build byte-accurate log images,
// tear or corrupt them, and check what a recovery scan would salvage.
func Encode(rec Record) []byte { return encode(&rec) }

// EncodeAll concatenates the on-disk encodings of recs — the byte stream a
// single coalesced group-commit write would put on the platter.
func EncodeAll(recs []Record) []byte {
	var buf []byte
	for i := range recs {
		buf = appendRecord(buf, &recs[i])
	}
	return buf
}

// ScanBytes decodes a concatenated record stream the way recovery reads it
// off the platter: records are taken in order until the stream ends cleanly
// or a record fails its length or checksum validation. The intact prefix is
// returned along with the error that stopped the scan (nil on a clean end).
//
// This is the all-or-nothing-per-record guarantee of a coalesced batch: a
// torn tail or a corrupted record costs exactly the records from the damage
// onward, never the intact records before it.
func ScanBytes(buf []byte) ([]Record, error) {
	var out []Record
	for len(buf) > 0 {
		if len(buf) < 2 {
			return out, fmt.Errorf("wal: torn length prefix (%d trailing bytes)", len(buf))
		}
		total := int(binary.LittleEndian.Uint16(buf[0:2])) + 2
		if total > len(buf) {
			return out, fmt.Errorf("wal: torn record: header says %d bytes, %d remain", total, len(buf))
		}
		rec, err := decode(buf[:total])
		if err != nil {
			return out, err
		}
		out = append(out, rec)
		buf = buf[total:]
	}
	return out, nil
}
