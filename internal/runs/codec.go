package runs

// Block-file codec: the checksummed on-disk format of spilled runs and of
// the streaming checkpoint epochs, with a staged (software-write-combining)
// writer that produces it and a block-at-a-time reader that consumes it.
// A spilled run is a run one storage level down: the same keys and state
// columns, a file instead of a chunk.
//
// Version 2 format (little-endian), the one this package writes:
//
//	header  16 B   magic "CAGS" | version u16 (=2) | record bytes u16 | reserved u64
//	blocks  each:  rows u32 | CRC32-IEEE(payload) u32 | payload
//	               payload = keys[rows] ++ col0[rows] ++ … (column-major u64)
//	footer  16 B   record count u64 | CRC32-IEEE(header+blocks) u32 | "SPND"
//
// Rows accumulate column-major in the writer's stage buffers and hit the
// file as one encoded block of up to BlockRows rows — the disk-level
// analogue of the partitioner's software write-combining: bulk uint64
// encode loops instead of a per-row PutUint64/ReadFull dance, and one
// buffered Write per block. Each block carries its own payload CRC so a
// damaged region is rejected before a single row of it is decoded; the
// whole-file CRC and record count in the footer still catch truncation,
// reordering and lost blocks.
//
// Only version 2 is read: spill files never outlive the process that wrote
// them and stream checkpoints have always been written as v2, so any other
// version (including the retired record-per-row v1) is ErrCorruptSpill.
//
// The record width in the header lets a reader reject files written with a
// different aggregate layout. All structural failures wrap ErrCorruptSpill.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"path/filepath"

	"cacheagg/internal/faultfs"
)

const (
	spillMagic       = 0x43414753 // "CAGS"
	spillEndMagic    = 0x53504e44 // "SPND"
	spillVersion     = 2
	spillHeaderSize  = 16
	spillFooterSize  = 16
	spillBlockHeader = 8
	// spillBufSize sizes the bufio layers. Full blocks at common widths
	// exceed it and bypass the copy; it exists to batch the header, footer
	// and partial-block writes.
	spillBufSize = 1 << 14
)

// BlockRows caps the rows per encoded block, and so the rows one
// BlockReader.Next returns. 512 rows keep the stage buffers (and the
// decoder's block scratch) a few tens of KiB at typical widths while making
// the per-block header and CRC negligible.
const BlockRows = 512

// BlockFileOverhead is the fixed byte cost of a block file: its header
// plus its footer. Exported so callers can budget a file before writing
// its first row.
const BlockFileOverhead = spillHeaderSize + spillFooterSize

// Sentinel errors of the spill path, matched with errors.Is.
var (
	// ErrCorruptSpill marks a block file that failed structural or
	// checksum validation (truncation, bit rot, format mismatch).
	ErrCorruptSpill = errors.New("corrupt spill file")
	// ErrSpillBudget marks an execution stopped by its cap on spill bytes.
	ErrSpillBudget = errors.New("spill budget exceeded")
)

// BlockWriter writes one file in the checksummed block format. A writer
// is owned by one goroutine at a time; any shared accounting belongs in
// the OnBlock/OnFlush hooks of its owner. After Finish or Abort, Create
// starts the next file on the same buffers.
type BlockWriter struct {
	path    string
	tag     string // "spill" or "checkpoint": names the file class in errors
	f       faultfs.File
	buf     *bufio.Writer
	crc     hash.Hash32
	records uint64
	bytes   int64
	closed  bool

	// Block staging: rows accumulate here column-major and are encoded
	// and written as one block when full (or on finish).
	stageKeys []uint64
	stageCols [][]uint64
	stageN    int
	enc       []byte

	// OnBlock, when non-nil, runs before each full or final block is
	// encoded and written, with the encoded size and row count; an error
	// aborts the flush (budget-charging hook).
	OnBlock func(encBytes, rows int) error
	// OnFlush, when non-nil, runs after each block write succeeds
	// (tracing hook).
	OnFlush func(rows int)
}

// NewBlockWriter creates path through fsys and writes the format header
// for a file of width partial columns. On any failure the created file is
// closed and removed, so no half-born file outlives the error.
func NewBlockWriter(fsys faultfs.FS, path, tag string, width int) (*BlockWriter, error) {
	w := &BlockWriter{}
	if err := w.Create(fsys, path, tag, width); err != nil {
		return nil, err
	}
	return w, nil
}

// Create starts a new file on w, reusing its buffers when the width is
// unchanged; see NewBlockWriter. The hooks stay installed.
func (w *BlockWriter) Create(fsys faultfs.FS, path, tag string, width int) error {
	f, err := fsys.Create(path)
	if err != nil {
		return fmt.Errorf("runs: create %s %s: %w", tag, filepath.Base(path), err)
	}
	if w.buf == nil || len(w.stageCols) != width {
		w.buf = bufio.NewWriterSize(f, spillBufSize)
		w.crc = crc32.NewIEEE()
		w.stageKeys = make([]uint64, BlockRows)
		w.stageCols = make([][]uint64, width)
		for c := range w.stageCols {
			w.stageCols[c] = make([]uint64, BlockRows)
		}
		w.enc = make([]byte, spillBlockHeader+(1+width)*BlockRows*8)
	} else {
		w.buf.Reset(f)
		w.crc.Reset()
	}
	w.path, w.tag, w.f = path, tag, f
	w.records, w.bytes, w.stageN, w.closed = 0, 0, 0, false
	var hdr [spillHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], spillMagic)
	binary.LittleEndian.PutUint16(hdr[4:], spillVersion)
	binary.LittleEndian.PutUint16(hdr[6:], uint16(8+8*width))
	if err := w.write(hdr[:]); err != nil {
		w.Abort()
		fsys.Remove(path) // best effort; the caller never saw the file
		return fmt.Errorf("runs: write %s %s: %w", tag, filepath.Base(path), err)
	}
	return nil
}

// Bytes returns how many bytes have been written (header included, staged
// rows excluded). After Finish it is the exact file size.
func (w *BlockWriter) Bytes() int64 { return w.bytes }

// AppendState stages one (key, partial-state row) record from uint64
// partial columns, flushing the stage as a block when it fills.
func (w *BlockWriter) AppendState(key uint64, cols [][]uint64, row int) error {
	n := w.stageN
	w.stageKeys[n] = key
	for c, col := range cols {
		w.stageCols[c][n] = col[row]
	}
	w.stageN = n + 1
	if w.stageN == BlockRows {
		return w.flush()
	}
	return nil
}

// AppendRun stages every row of the key column and its state columns with
// one copy per column and stage fill, flushing full blocks as it goes.
func (w *BlockWriter) AppendRun(keys []uint64, cols [][]uint64) error {
	for i := 0; i < len(keys); {
		n := min(len(keys)-i, BlockRows-w.stageN)
		copy(w.stageKeys[w.stageN:], keys[i:i+n])
		for c, col := range cols {
			copy(w.stageCols[c][w.stageN:], col[i:i+n])
		}
		w.stageN += n
		i += n
		if w.stageN == BlockRows {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush encodes the staged rows as one block — bulk little-endian loops
// per column — and writes it through the buffer and the running file CRC,
// bracketed by the OnBlock/OnFlush hooks.
func (w *BlockWriter) flush() error {
	n := w.stageN
	if n == 0 {
		return nil
	}
	enc := w.enc[:spillBlockHeader+(1+len(w.stageCols))*n*8]
	if w.OnBlock != nil {
		if err := w.OnBlock(len(enc), n); err != nil {
			return err
		}
	}
	w.stageN = 0
	binary.LittleEndian.PutUint32(enc[0:], uint32(n))
	off := spillBlockHeader
	for _, k := range w.stageKeys[:n] {
		binary.LittleEndian.PutUint64(enc[off:], k)
		off += 8
	}
	for _, col := range w.stageCols {
		for _, v := range col[:n] {
			binary.LittleEndian.PutUint64(enc[off:], v)
			off += 8
		}
	}
	binary.LittleEndian.PutUint32(enc[4:], crc32.ChecksumIEEE(enc[spillBlockHeader:]))
	if err := w.write(enc); err != nil {
		return fmt.Errorf("runs: write %s %s: %w", w.tag, filepath.Base(w.path), err)
	}
	w.records += uint64(n)
	if w.OnFlush != nil {
		w.OnFlush(n)
	}
	return nil
}

// write appends bytes to the file through the buffer and the running CRC.
func (w *BlockWriter) write(p []byte) error {
	if _, err := w.buf.Write(p); err != nil {
		return err
	}
	w.crc.Write(p)
	w.bytes += int64(len(p))
	return nil
}

// Finish flushes any staged rows, writes the footer, flushes the buffer,
// optionally fsyncs (the checkpoint path's durability point — spill files
// are scratch and skip it) and closes. After it the file is a
// self-validating unit on disk.
func (w *BlockWriter) Finish(sync bool) error {
	if err := w.flush(); err != nil {
		return err
	}
	var ftr [spillFooterSize]byte
	binary.LittleEndian.PutUint64(ftr[0:], w.records)
	binary.LittleEndian.PutUint32(ftr[8:], w.crc.Sum32())
	binary.LittleEndian.PutUint32(ftr[12:], spillEndMagic)
	if _, err := w.buf.Write(ftr[:]); err != nil {
		return fmt.Errorf("runs: write %s %s: %w", w.tag, filepath.Base(w.path), err)
	}
	w.bytes += spillFooterSize
	if err := w.buf.Flush(); err != nil {
		return fmt.Errorf("runs: flush %s %s: %w", w.tag, filepath.Base(w.path), err)
	}
	if sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("runs: sync %s %s: %w", w.tag, filepath.Base(w.path), err)
		}
	}
	w.closed = true
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("runs: close %s %s: %w", w.tag, filepath.Base(w.path), err)
	}
	return nil
}

// Abort is the error-path cleanup: close the handle if still open, without
// writing a footer. Safe to call in any state and more than once; removal
// of the (invalid) file is the caller's business.
func (w *BlockWriter) Abort() {
	if !w.closed {
		w.closed = true
		w.stageN = 0
		w.f.Close() // error irrelevant: the file is dead
	}
}

// ---------------------------------------------------------------------------
// Decode path.

func corrupt(path, detail string) error {
	return fmt.Errorf("runs: %w %s: %s", ErrCorruptSpill, filepath.Base(path), detail)
}

// BlockReader reads a block file one block at a time: each block's
// payload CRC is checked before any of its rows is returned, and the
// footer's record count and whole-file CRC after the last. The zero value
// is ready for Open; Close ends one file, and Open starts the next on the
// same buffers.
type BlockReader struct {
	f         faultfs.File
	path, tag string
	r         *bufio.Reader
	crc       hash.Hash32
	width     int
	remaining int64 // bytes between the read position and the footer
	records   uint64
	block     []byte
}

// Open opens path through fsys and validates the header of a file of
// width partial columns (magic, record width, format version). On failure
// nothing stays open.
func (br *BlockReader) Open(fsys faultfs.FS, path, tag string, width int) error {
	f, err := fsys.Open(path)
	if err != nil {
		return fmt.Errorf("runs: open %s %s: %w", tag, filepath.Base(path), err)
	}
	br.f, br.path, br.tag, br.width, br.records = f, path, tag, width, 0
	if err := br.start(); err != nil {
		br.f = nil
		f.Close()
		return err
	}
	return nil
}

// start sizes the buffers and checks the header of the opened file.
func (br *BlockReader) start() error {
	st, err := br.f.Stat()
	if err != nil {
		return fmt.Errorf("runs: stat %s %s: %w", br.tag, filepath.Base(br.path), err)
	}
	size := st.Size()
	if size < spillHeaderSize+spillFooterSize {
		return corrupt(br.path, fmt.Sprintf("%d bytes, smaller than header+footer", size))
	}
	if br.r == nil {
		br.r = bufio.NewReaderSize(br.f, spillBufSize)
		br.crc = crc32.NewIEEE()
	} else {
		br.r.Reset(br.f)
		br.crc.Reset()
	}
	if n := spillBlockHeader + (1+br.width)*BlockRows*8; cap(br.block) < n {
		br.block = make([]byte, n)
	}
	var hdr [spillHeaderSize]byte
	if _, err := io.ReadFull(br.r, hdr[:]); err != nil {
		return br.readErr(err)
	}
	br.crc.Write(hdr[:])
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != spillMagic {
		return corrupt(br.path, fmt.Sprintf("bad magic %#08x", m))
	}
	if rb, want := binary.LittleEndian.Uint16(hdr[6:]), 8+8*br.width; int(rb) != want {
		return corrupt(br.path, fmt.Sprintf("record width %d, plan needs %d", rb, want))
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != spillVersion {
		return corrupt(br.path, fmt.Sprintf("unsupported version %d", v))
	}
	br.remaining = size - spillHeaderSize - spillFooterSize
	return nil
}

func (br *BlockReader) readErr(err error) error {
	return fmt.Errorf("runs: read %s %s: %w", br.tag, filepath.Base(br.path), err)
}

// Next decodes the next block into keys[:n] and cols[c][:n], which need
// room for BlockRows rows, and returns n. After the last block it checks
// the footer and returns io.EOF.
func (br *BlockReader) Next(keys []uint64, cols [][]uint64) (int, error) {
	if br.remaining == 0 {
		return 0, br.checkFooter()
	}
	recSize := int64(8 + 8*br.width)
	if br.remaining < spillBlockHeader {
		return 0, corrupt(br.path, fmt.Sprintf("dangling %d bytes before footer", br.remaining))
	}
	bh := br.block[:spillBlockHeader]
	if _, err := io.ReadFull(br.r, bh); err != nil {
		return 0, br.readErr(err)
	}
	br.crc.Write(bh)
	rows := int(binary.LittleEndian.Uint32(bh[0:]))
	wantCRC := binary.LittleEndian.Uint32(bh[4:])
	if rows <= 0 || rows > BlockRows {
		return 0, corrupt(br.path, fmt.Sprintf("block of %d rows (max %d)", rows, BlockRows))
	}
	payload := int64(rows) * recSize
	br.remaining -= spillBlockHeader
	if payload > br.remaining {
		return 0, corrupt(br.path, fmt.Sprintf("block of %d rows overruns the file", rows))
	}
	pb := br.block[spillBlockHeader : spillBlockHeader+int(payload)]
	if _, err := io.ReadFull(br.r, pb); err != nil {
		return 0, br.readErr(err)
	}
	br.crc.Write(pb)
	if got := crc32.ChecksumIEEE(pb); got != wantCRC {
		return 0, corrupt(br.path, fmt.Sprintf("block checksum mismatch: header %#08x, computed %#08x", wantCRC, got))
	}
	off := 0
	for i := range keys[:rows] {
		keys[i] = binary.LittleEndian.Uint64(pb[off:])
		off += 8
	}
	for _, col := range cols {
		for i := range col[:rows] {
			col[i] = binary.LittleEndian.Uint64(pb[off:])
			off += 8
		}
	}
	br.remaining -= payload
	br.records += uint64(rows)
	return rows, nil
}

// checkFooter reads and validates the 16-byte trailer against the decoded
// row count and the running whole-file CRC, returning io.EOF when it holds.
func (br *BlockReader) checkFooter() error {
	var ftr [spillFooterSize]byte
	if _, err := io.ReadFull(br.r, ftr[:]); err != nil {
		return br.readErr(err)
	}
	if m := binary.LittleEndian.Uint32(ftr[12:]); m != spillEndMagic {
		return corrupt(br.path, fmt.Sprintf("bad end marker %#08x", m))
	}
	if cnt := binary.LittleEndian.Uint64(ftr[0:]); cnt != br.records {
		return corrupt(br.path, fmt.Sprintf("footer records %d, file holds %d", cnt, br.records))
	}
	if want, got := binary.LittleEndian.Uint32(ftr[8:]), br.crc.Sum32(); want != got {
		return corrupt(br.path, fmt.Sprintf("checksum mismatch: footer %#08x, computed %#08x", want, got))
	}
	return io.EOF
}

// Close closes the file. A failing close on the read side is still a
// failing I/O call on a file the caller depends on, so it is returned.
func (br *BlockReader) Close() error {
	if br.f == nil {
		return nil
	}
	f := br.f
	br.f = nil
	if err := f.Close(); err != nil {
		return fmt.Errorf("runs: close %s %s: %w", br.tag, filepath.Base(br.path), err)
	}
	return nil
}

// ReadBlockFile loads a whole block file of width partial columns into
// columnar form, validating the header and every checksum before trusting
// a single record.
func ReadBlockFile(fsys faultfs.FS, path, tag string, width int) ([]uint64, [][]uint64, error) {
	var br BlockReader
	if err := br.Open(fsys, path, tag, width); err != nil {
		return nil, nil, err
	}
	// The file size bounds the rows (block headers eat into it).
	est := int(br.remaining / int64(8+8*width))
	keys, bk := make([]uint64, 0, est), make([]uint64, BlockRows)
	cols, bc := make([][]uint64, width), make([][]uint64, width)
	for c := range cols {
		cols[c], bc[c] = make([]uint64, 0, est), make([]uint64, BlockRows)
	}
	var err error
	for {
		var n int
		if n, err = br.Next(bk, bc); err != nil {
			break
		}
		keys = append(keys, bk[:n]...)
		for c := range cols {
			cols[c] = append(cols[c], bc[c][:n]...)
		}
	}
	if cerr := br.Close(); err == io.EOF {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	return keys, cols, nil
}
