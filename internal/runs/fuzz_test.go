package runs_test

// Fuzz target for the block-file decoder: arbitrary bytes must never
// panic ReadBlockFile, and whatever it accepts must be structurally sound.
// Seeds are v2 (block codec) files, damaged copies of them, and copies
// relabelled with a version it does not read. The test lives in an
// external package so the format below is written down apart from
// codec.go: the seeds check the codec rather than echo it.

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"cacheagg/internal/faultfs"
	"cacheagg/internal/runs"
)

// The block format, written down independently of the codec.
const (
	spillMagic       = 0x43414753 // "CAGS"
	spillEndMagic    = 0x53504e44 // "SPND"
	spillVersion     = 2
	spillHeaderSize  = 16
	spillFooterSize  = 16
	spillBlockHeader = 8
	spillBlockRows   = 512
)

// encodeSpillV2 builds valid version-2 spill-file bytes of width 1 (a key
// and one state word per record): checksummed column-major blocks of up
// to spillBlockRows rows.
func encodeSpillV2(keys []uint64, partials []uint64) []byte {
	const recSize = 16
	crc := crc32.NewIEEE()
	buf := make([]byte, 0, spillHeaderSize+len(keys)*(recSize+1)+spillFooterSize)
	var hdr [spillHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], spillMagic)
	binary.LittleEndian.PutUint16(hdr[4:], spillVersion)
	binary.LittleEndian.PutUint16(hdr[6:], recSize)
	buf = append(buf, hdr[:]...)
	crc.Write(hdr[:])
	for lo := 0; lo < len(keys); lo += spillBlockRows {
		hi := min(lo+spillBlockRows, len(keys))
		n := hi - lo
		block := make([]byte, spillBlockHeader+n*recSize)
		binary.LittleEndian.PutUint32(block[0:], uint32(n))
		off := spillBlockHeader
		for _, k := range keys[lo:hi] {
			binary.LittleEndian.PutUint64(block[off:], k)
			off += 8
		}
		for _, v := range partials[lo:hi] {
			binary.LittleEndian.PutUint64(block[off:], v)
			off += 8
		}
		binary.LittleEndian.PutUint32(block[4:], crc32.ChecksumIEEE(block[spillBlockHeader:]))
		buf = append(buf, block...)
		crc.Write(block)
	}
	var ftr [spillFooterSize]byte
	binary.LittleEndian.PutUint64(ftr[0:], uint64(len(keys)))
	binary.LittleEndian.PutUint32(ftr[8:], crc.Sum32())
	binary.LittleEndian.PutUint32(ftr[12:], spillEndMagic)
	return append(buf, ftr[:]...)
}

// withSpillVersion returns a copy of a spill file with its header's format
// version replaced by v.
func withSpillVersion(data []byte, v uint16) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(out[4:], v)
	return out
}

func FuzzSpillDecoder(f *testing.F) {
	validV2 := encodeSpillV2([]uint64{1, 2, 3}, []uint64{10, 20, 30})
	f.Add(validV2)
	f.Add(withSpillVersion(validV2, 1)) // retired v1: unsupported version
	f.Add(encodeSpillV2(nil, nil))
	f.Add(withSpillVersion(encodeSpillV2(nil, nil), spillVersion+1))
	f.Add(validV2[:len(validV2)-5])      // truncated footer
	f.Add(validV2[:spillHeaderSize])     // header only
	f.Add(validV2[:spillHeaderSize+4])   // torn block header
	f.Add([]byte{})                      // empty file
	f.Add([]byte("CAGSnotreallyaspill")) // magic prefix, garbage rest
	for _, off := range []int{spillHeaderSize + spillBlockHeader + 3, spillHeaderSize + 5} {
		mut := append([]byte(nil), validV2...)
		mut[off] ^= 0xFF // bit rot in row data, then in the block CRC
		f.Add(mut)
	}
	big := make([]uint64, 3*spillBlockRows/2) // multi-block v2 file
	for i := range big {
		big[i] = uint64(i)
	}
	f.Add(encodeSpillV2(big, big))

	readSpill := func(path string) ([]uint64, [][]uint64, error) {
		return runs.ReadBlockFile(faultfs.OS(), path, "spill", 1)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.spill")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		keys, partials, err := readSpill(path)
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		// Accepted: the decode must be self-consistent, and re-encoding
		// and re-decoding it (through the current format) must reproduce
		// the same rows (the reserved header bytes are the only slack).
		if len(partials) != 1 || len(partials[0]) != len(keys) {
			t.Fatalf("inconsistent decode: %d keys, %d partial columns", len(keys), len(partials))
		}
		path2 := filepath.Join(t.TempDir(), "fuzz2.spill")
		if err := os.WriteFile(path2, encodeSpillV2(keys, partials[0]), 0o644); err != nil {
			t.Fatal(err)
		}
		keys2, partials2, err := readSpill(path2)
		if err != nil {
			t.Fatalf("re-encoded accepted file rejected: %v", err)
		}
		if len(keys2) != len(keys) {
			t.Fatalf("round-trip changed row count: %d vs %d", len(keys2), len(keys))
		}
		for i := range keys {
			if keys2[i] != keys[i] || partials2[0][i] != partials[0][i] {
				t.Fatalf("round-trip changed row %d", i)
			}
		}
	})
}
