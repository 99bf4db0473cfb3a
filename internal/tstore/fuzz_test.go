package tstore

// Fuzz coverage for the frame protocol: arbitrary byte streams through
// readFrame/decodeUnit must never panic or over-allocate, and the scan
// must be prefix-stable — rescanning the valid prefix of any input
// recovers exactly the same frames. This is the property the torn-tail and
// kill -9 guarantees rest on. Every unit that decodes must also pass the
// structural check the engines rely on.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/vex"
)

// scanFrames walks data (positioned after the header) exactly like the
// disk tier: stop at the first bad frame, skip CRC-valid-but-undecodable
// payloads. Returns decoded unit count, skipped-corrupt count and the last
// good frame boundary.
func scanFrames(data []byte, start int) (units, corrupt, validEnd int) {
	d := &dec{buf: data, off: start}
	validEnd = start
	for d.off < len(d.buf) {
		payload, ok := readFrame(d)
		if !ok {
			break
		}
		if _, err := decodeUnit(&dec{buf: payload}, testKey().Helpers); err != nil {
			corrupt++
		} else {
			units++
		}
		validEnd = d.off
	}
	return units, corrupt, validEnd
}

func fuzzSeedFile() []byte {
	e := &enc{buf: append([]byte{}, fileMagic...)}
	e.str(testKey().String())
	for _, addr := range []uint64{0x1000, 0x1040, 0x1080} {
		var ue enc
		u := &Unit{Addr: addr, SB: sampleSB(addr), Seams: 1}
		if addr == 0x1080 {
			u.Code, _ = vex.Compile(u.SB)
		}
		encodeUnit(&ue, u)
		e.u64(uint64(len(ue.buf)))
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(ue.buf))
		e.buf = append(e.buf, crc[:]...)
		e.buf = append(e.buf, ue.buf...)
	}
	return e.buf
}

func FuzzFrameScan(f *testing.F) {
	valid := fuzzSeedFile()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])           // torn tail
	f.Add(valid[:len(valid)/2])           // torn mid-frame
	f.Add(append([]byte{}, valid[8:]...)) // headerless
	flip := append([]byte{}, valid...)
	flip[len(flip)/2] ^= 0x20
	f.Add(flip) // bit rot
	huge := append([]byte{}, valid[:20]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f) // giant varint length
	f.Add(huge)
	f.Add([]byte{})
	f.Add(fileMagic)

	f.Fuzz(func(t *testing.T, data []byte) {
		units, corrupt, validEnd := scanFrames(data, 0)
		if validEnd > len(data) {
			t.Fatalf("validEnd %d past input end %d", validEnd, len(data))
		}
		// Prefix stability: the valid prefix rescans to the same result.
		u2, c2, v2 := scanFrames(data[:validEnd], 0)
		if u2 != units || c2 != corrupt || v2 != validEnd {
			t.Fatalf("rescan of valid prefix diverged: %d/%d/%d vs %d/%d/%d",
				u2, c2, v2, units, corrupt, validEnd)
		}
		// Decoded units must re-encode deterministically (no half-decoded
		// state escapes); exercises decodeUnit's allocation bounds too.
		d := &dec{buf: data[:validEnd]}
		for d.off < len(d.buf) {
			payload, ok := readFrame(d)
			if !ok {
				break
			}
			u, err := decodeUnit(&dec{buf: payload}, testKey().Helpers)
			if err != nil {
				continue
			}
			if err := checkUnit(u, testKey().Helpers); err != nil {
				t.Fatalf("decoded unit fails the structural check: %v", err)
			}
			var e1, e2 enc
			encodeUnit(&e1, u)
			ru, err := decodeUnit(&dec{buf: e1.buf}, testKey().Helpers)
			if err != nil {
				t.Fatalf("re-decode of re-encoded unit failed: %v", err)
			}
			encodeUnit(&e2, ru)
			if !bytes.Equal(e1.buf, e2.buf) {
				t.Fatal("decoded unit does not round-trip byte-identically")
			}
		}
	})
}
